package experiments

import (
	"fmt"
	"time"

	"repro/internal/fleet"
)

// FleetRow is one fleet size's measurement in E12.
type FleetRow struct {
	Vehicles     int
	MeanMS       float64
	MaxMS        float64
	OffloadShare float64
	HangUps      int
}

// RunFleetContention grows a fleet over one shared RSU and measures
// per-vehicle service latency and offload share (E12): elastic management
// must route around the saturating edge instead of queueing on it.
func RunFleetContention() ([]FleetRow, error) {
	var rows []FleetRow
	for _, n := range []int{1, 2, 4, 8, 16} {
		f, err := fleet.New(fleet.Config{Vehicles: n, RSUs: 1})
		if err != nil {
			return nil, err
		}
		// Warm the system with a few rounds, then measure the steady
		// round (all rounds at t=0: maximal simultaneous contention).
		var last fleet.RoundResult
		for round := 0; round < 5; round++ {
			last, err = f.ShardedInvokeAll("kidnapper-search", 0)
			if err != nil {
				return nil, err
			}
		}
		rows = append(rows, FleetRow{
			Vehicles:     n,
			MeanMS:       float64(last.Mean()) / float64(time.Millisecond),
			MaxMS:        float64(last.Max) / float64(time.Millisecond),
			OffloadShare: last.OffloadShare,
			HangUps:      last.HangUps,
		})
	}
	return rows, nil
}

// FleetTable renders E12.
func FleetTable(rows []FleetRow) *Table {
	t := &Table{
		Title:   "E12: fleet contention on one shared RSU (steady round)",
		Columns: []string{"Vehicles", "Mean (ms)", "Max (ms)", "Offload share", "Hang-ups"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Vehicles), f2(r.MeanMS), f2(r.MaxMS),
			f2(r.OffloadShare), fmt.Sprintf("%d", r.HangUps),
		})
	}
	return t
}
