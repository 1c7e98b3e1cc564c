package experiments

import (
	"fmt"
	"time"

	"repro/internal/ddi"
	"repro/internal/edgeos"
	"repro/internal/geo"
	"repro/internal/hardware"
	"repro/internal/obs"
	"repro/internal/offload"
	"repro/internal/sim"
	"repro/internal/tasks"
	"repro/internal/vcu"
	"repro/internal/xedge"
)

// DSFRow is one policy's result in E4.
type DSFRow struct {
	Policy     string
	Workload   string
	MakespanMS float64
	EnergyJ    float64
}

// RunDSFAblation schedules n back-to-back instances of each library DAG
// under each built-in policy on a fresh default VCU and reports the total
// makespan and energy (E4).
func RunDSFAblation(n int) ([]DSFRow, error) {
	if n <= 0 {
		n = 8
	}
	workloads := []func() *tasks.DAG{tasks.ALPR, tasks.PedestrianAlert, tasks.InfotainmentDecode}
	var rows []DSFRow
	for _, policy := range vcu.Policies() {
		for _, mk := range workloads {
			m, err := vcu.DefaultVCU()
			if err != nil {
				return nil, err
			}
			dsf, err := vcu.NewDSF(m, policy)
			if err != nil {
				return nil, err
			}
			var last time.Duration
			var energy float64
			for i := 0; i < n; i++ {
				plan, err := dsf.Run(mk(), 0)
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", policy.Name(), mk().Name, err)
				}
				energy += plan.EnergyJ
				for _, a := range plan.Assignments {
					if a.Finish > last {
						last = a.Finish
					}
				}
			}
			rows = append(rows, DSFRow{
				Policy:     policy.Name(),
				Workload:   mk().Name,
				MakespanMS: float64(last) / float64(time.Millisecond),
				EnergyJ:    energy,
			})
		}
	}
	return rows, nil
}

// DSFTable renders E4.
func DSFTable(rows []DSFRow) *Table {
	t := &Table{
		Title:   "E4: DSF scheduler ablation (total makespan of 8 back-to-back DAGs)",
		Columns: []string{"Policy", "Workload", "Makespan (ms)", "Energy (J)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Policy, r.Workload, f2(r.MakespanMS), f2(r.EnergyJ)})
	}
	return t
}

// ElasticRow is one operating point in E5.
type ElasticRow struct {
	SpeedMPH   float64
	EdgeBusy   bool
	Pipeline   string
	Dest       string
	LatencyMS  float64
	MeetsSLA   bool
	DeadlineMS float64
}

// RunElastic evaluates the kidnapper-search service's pipeline choice
// across vehicle speeds and edge-server load (E5): the elastic manager
// should move the split point and destination as conditions change.
func RunElastic() ([]ElasticRow, error) {
	const deadline = 2 * time.Second
	speeds := []float64{0, 35, 70}
	var rows []ElasticRow
	for _, busy := range []bool{false, true} {
		for _, mph := range speeds {
			m, err := vcu.DefaultVCU()
			if err != nil {
				return nil, err
			}
			dsf, err := vcu.NewDSF(m, vcu.GreedyEFT{})
			if err != nil {
				return nil, err
			}
			road, err := geo.NewRoad(20000)
			if err != nil {
				return nil, err
			}
			road.PlaceStations(20, geo.BaseStation, 900, 0, "bs")
			rsu, err := xedge.NewRSU(geo.Station{ID: "rsu-0", Kind: geo.RSU, Pos: geo.Point{X: 0}, Radius: 1e9})
			if err != nil {
				return nil, err
			}
			if busy {
				if err := rsu.Preload(96, hardware.DNNInference, 400); err != nil {
					return nil, err
				}
			}
			cl, err := xedge.NewCloud()
			if err != nil {
				return nil, err
			}
			eng, err := offload.NewEngine(dsf, geo.Mobility{Road: road, SpeedMS: geo.MPH(mph)}, []*xedge.Site{rsu, cl})
			if err != nil {
				return nil, err
			}
			mgr, err := edgeos.NewElasticManager(eng, edgeos.MinLatency)
			if err != nil {
				return nil, err
			}
			svc := &edgeos.Service{
				Name:     "kidnapper-search",
				Priority: edgeos.PriorityInteractive,
				Deadline: deadline,
				DAG:      tasks.ALPR(),
				Image:    []byte("a3"),
			}
			if err := mgr.Register(svc); err != nil {
				return nil, err
			}
			best, _, viable, err := mgr.Choose("kidnapper-search", 0)
			if err != nil {
				return nil, err
			}
			row := ElasticRow{
				SpeedMPH:   mph,
				EdgeBusy:   busy,
				DeadlineMS: float64(deadline) / float64(time.Millisecond),
				MeetsSLA:   viable,
			}
			if viable || best.Estimate.Feasible {
				row.Pipeline = best.Pipeline.Name
				row.Dest = best.Estimate.Dest
				row.LatencyMS = float64(best.Estimate.Total) / float64(time.Millisecond)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ElasticTable renders E5.
func ElasticTable(rows []ElasticRow) *Table {
	t := &Table{
		Title:   "E5: elastic management pipeline selection (kidnapper search, 2 s deadline)",
		Columns: []string{"Speed (MPH)", "Edge busy", "Pipeline", "Destination", "Latency (ms)", "Meets SLA"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			f2(r.SpeedMPH), fmt.Sprintf("%v", r.EdgeBusy), r.Pipeline, r.Dest,
			f2(r.LatencyMS), fmt.Sprintf("%v", r.MeetsSLA),
		})
	}
	return t
}

// ArchRow is one workload's comparison in E6.
type ArchRow struct {
	Workload  string
	SpeedMPH  float64
	OnboardMS float64
	EdgeMS    float64
	CloudMS   float64
	Winner    string
}

// RunArchComparison contrasts the paper's three computing architectures
// (§III): in-vehicle only, edge-based, cloud-based, per workload and speed.
func RunArchComparison() ([]ArchRow, error) {
	return RunArchComparisonTraced(obs.Scope{}, "")
}

// RunArchComparisonTraced is RunArchComparison with every subsystem
// reporting into the given scope. The numbers are identical to the untraced
// run; with a ddiDir the trace additionally includes a DDI stage (one
// collection round plus hot/cold reads in ddiDir) so all five component
// lanes — vcu, offload, network, xedge/cloud, ddi — appear.
func RunArchComparisonTraced(sc obs.Scope, ddiDir string) ([]ArchRow, error) {
	if ddiDir != "" {
		if err := runArchDDIStage(sc, ddiDir); err != nil {
			return nil, err
		}
	}
	workloads := []*tasks.DAG{
		{Name: "lane-detection", Tasks: []*tasks.Task{tasks.LaneDetection()}},
		{Name: "vehicle-detect-haar", Tasks: []*tasks.Task{tasks.VehicleDetectionHaar()}},
		{Name: "vehicle-detect-dnn", Tasks: []*tasks.Task{tasks.VehicleDetectionDNN()}},
		tasks.ALPR(),
	}
	var rows []ArchRow
	for _, mph := range []float64{0, 35, 70} {
		for _, dag := range workloads {
			m, err := vcu.DefaultVCU()
			if err != nil {
				return nil, err
			}
			dsf, err := vcu.NewDSF(m, vcu.GreedyEFT{})
			if err != nil {
				return nil, err
			}
			road, err := geo.NewRoad(20000)
			if err != nil {
				return nil, err
			}
			road.PlaceStations(20, geo.BaseStation, 900, 0, "bs")
			rsu, err := xedge.NewRSU(geo.Station{ID: "rsu", Kind: geo.RSU, Pos: geo.Point{X: 0}, Radius: 1e9})
			if err != nil {
				return nil, err
			}
			cl, err := xedge.NewCloud()
			if err != nil {
				return nil, err
			}
			eng, err := offload.NewEngine(dsf, geo.Mobility{Road: road, SpeedMS: geo.MPH(mph)}, []*xedge.Site{rsu, cl})
			if err != nil {
				return nil, err
			}
			dsf.Instrument(sc)
			eng.Instrument(sc)
			onboard := eng.EstimateOnboard(dag.Clone(), 0)
			edge := eng.EstimateSite(dag.Clone(), rsu, 0, 0)
			cloudEst := eng.EstimateSite(dag.Clone(), cl, 0, 0)
			row := ArchRow{
				Workload:  dag.Name,
				SpeedMPH:  mph,
				OnboardMS: float64(onboard.Total) / float64(time.Millisecond),
				EdgeMS:    float64(edge.Total) / float64(time.Millisecond),
				CloudMS:   float64(cloudEst.Total) / float64(time.Millisecond),
			}
			row.Winner = "onboard"
			best := onboard.Total
			if edge.Feasible && edge.Total < best {
				row.Winner, best = "edge", edge.Total
			}
			if cloudEst.Feasible && cloudEst.Total < best {
				row.Winner = "cloud"
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// runArchDDIStage exercises the data tier for the traced arch run: one
// collection round, a cache-hit read, and a TTL-expired disk read.
func runArchDDIStage(sc obs.Scope, dir string) error {
	road, err := geo.NewRoad(20000)
	if err != nil {
		return err
	}
	d, err := ddi.New(ddi.Options{Dir: dir, Mobility: geo.Mobility{Road: road, SpeedMS: 15}}, sim.NewRNG(1))
	if err != nil {
		return err
	}
	defer d.Close()
	d.Instrument(sc)
	recs, err := d.Collect(time.Second)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("experiments: DDI stage collected nothing")
	}
	// Hot read inside the TTL, then the same record after expiry (disk
	// path with promotion).
	if _, _, err := d.DownloadByID(2*time.Second, recs[0].ID); err != nil {
		return err
	}
	if _, _, err := d.DownloadByID(10*time.Minute, recs[0].ID); err != nil {
		return err
	}
	return nil
}

// ArchTable renders E6.
func ArchTable(rows []ArchRow) *Table {
	t := &Table{
		Title:   "E6: three computing architectures, end-to-end latency",
		Columns: []string{"Workload", "Speed (MPH)", "Onboard (ms)", "Edge (ms)", "Cloud (ms)", "Winner"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Workload, f2(r.SpeedMPH), f2(r.OnboardMS), f2(r.EdgeMS), f2(r.CloudMS), r.Winner,
		})
	}
	return t
}

// DDIRow is one operation's measurement in E8.
type DDIRow struct {
	Operation string
	AvgMS     float64
	HitRate   float64
}

// RunDDIBench loads a DDI with an hour of telemetry and measures the
// two-tier access paths (E8).
func RunDDIBench(dir string, seed int64) ([]DDIRow, error) {
	road, err := geo.NewRoad(20000)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed)
	d, err := ddi.New(ddi.Options{Dir: dir, Mobility: geo.Mobility{Road: road, SpeedMS: 15}}, rng.Fork())
	if err != nil {
		return nil, err
	}
	defer d.Close()
	var ids []uint64
	for s := 1; s <= 3600; s += 2 {
		recs, err := d.Collect(time.Duration(s) * time.Second)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			ids = append(ids, r.ID)
		}
	}
	now := time.Hour + time.Minute
	// Hot reads: recent records still inside the 5-minute TTL.
	var hot time.Duration
	hotN := 0
	for _, id := range ids[len(ids)-200:] {
		_, lat, err := d.DownloadByID(now, id)
		if err != nil {
			return nil, err
		}
		hot += lat
		hotN++
	}
	// Cold reads: old records that expired from cache.
	var cold time.Duration
	coldN := 0
	for _, id := range ids[:200] {
		_, lat, err := d.DownloadByID(now, id)
		if err != nil {
			return nil, err
		}
		cold += lat
		coldN++
	}
	// Range query: one 10-minute OBD window.
	_, rangeLat, err := d.Download(now, ddi.Query{Source: ddi.SourceOBD, From: 10 * time.Minute, To: 20 * time.Minute})
	if err != nil {
		return nil, err
	}
	_, _, hitRate := d.Stats()
	ms := func(total time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n) / float64(time.Millisecond)
	}
	return []DDIRow{
		{Operation: "point-read (cache hit)", AvgMS: ms(hot, hotN), HitRate: hitRate},
		{Operation: "point-read (disk path)", AvgMS: ms(cold, coldN), HitRate: hitRate},
		{Operation: "range-query 10 min OBD", AvgMS: float64(rangeLat) / float64(time.Millisecond), HitRate: hitRate},
	}, nil
}

// DDITable renders E8.
func DDITable(rows []DDIRow) *Table {
	t := &Table{
		Title:   "E8: DDI two-tier store access latency (1 h of telemetry)",
		Columns: []string{"Operation", "Avg latency (ms)", "Cache hit rate"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Operation, fmt.Sprintf("%.4f", r.AvgMS), f3(r.HitRate)})
	}
	return t
}
