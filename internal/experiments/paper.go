package experiments

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/hardware"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/tasks"
	"repro/internal/video"
)

// Table1Row is one measurement of E1 (paper Table I).
type Table1Row struct {
	Name      string
	LatencyMS float64
	PaperMS   float64
}

// RunTable1 measures the three Table-I workloads on the calibrated
// 2.4 GHz AWS vCPU model.
func RunTable1() ([]Table1Row, error) {
	host, err := hardware.Lookup(hardware.DeviceAWSVCPU)
	if err != nil {
		return nil, err
	}
	paper := map[string]float64{
		"lane-detect":         13.57,
		"vehicle-detect-haar": 269.46,
		"vehicle-detect-dnn":  13971.98,
	}
	var rows []Table1Row
	for _, w := range tasks.Table1Workloads() {
		d, err := host.ExecTime(w.Class, w.GFLOP)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.ID, err)
		}
		rows = append(rows, Table1Row{
			Name:      w.Name,
			LatencyMS: float64(d) / float64(time.Millisecond),
			PaperMS:   paper[w.ID],
		})
	}
	return rows, nil
}

// Table1Table renders E1.
func Table1Table(rows []Table1Row) *Table {
	t := &Table{
		Title:   "Table I: latency of autonomous-driving algorithms (2.4 GHz vCPU)",
		Columns: []string{"Algorithm", "Latency (ms)", "Paper (ms)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Name, f2(r.LatencyMS), f2(r.PaperMS)})
	}
	return t
}

// Figure2Row is one point of E2 (paper Figure 2).
type Figure2Row struct {
	Scenario        string
	Profile         string
	PacketLoss      float64
	FrameLoss       float64
	PaperPacketLoss float64
	PaperFrameLoss  float64
}

// paperFig2 holds the published loss rates.
var paperFig2 = map[string][2]float64{ // scenario/profile -> packet, frame
	"static/720p":  {0.002, 0.012},
	"static/1080p": {0.006, 0.027},
	"35mph/720p":   {0.021, 0.390},
	"35mph/1080p":  {0.070, 0.763},
	"70mph/720p":   {0.535, 0.911},
	"70mph/1080p":  {0.617, 0.980},
}

// RunFigure2 replays the drive test: a five-minute live H.264 upload over
// LTE at each speed and resolution, with the paper's counting rules. A
// duration shorter than one GOP has no frame to count and is an error.
func RunFigure2(seed int64, duration time.Duration) ([]Figure2Row, error) {
	profiles := []video.Profile{video.Profile720p(), video.Profile1080p()}
	for _, prof := range profiles {
		if duration < prof.KeyInterval {
			return nil, fmt.Errorf("figure 2: duration %v is shorter than one %v GOP of the %s stream", duration, prof.KeyInterval, prof.Name)
		}
	}
	road, err := geo.NewRoad(80000)
	if err != nil {
		return nil, err
	}
	road.PlaceStations(80, geo.BaseStation, 800, 0, "bs") // 1 km cells
	speeds := []struct {
		name string
		v    float64
	}{
		{"static", 0},
		{"35mph", geo.MPH(35)},
		{"70mph", geo.MPH(70)},
	}
	lte, err := network.LookupLink("lte")
	if err != nil {
		return nil, err
	}
	var rows []Figure2Row
	for _, sp := range speeds {
		for _, prof := range profiles {
			mob := geo.Mobility{Road: road, SpeedMS: sp.v}
			ch, err := network.NewCellularChannel(lte, mob, prof.BitrateMbps, sim.NewRNG(seed))
			if err != nil {
				return nil, err
			}
			stream, err := video.NewStream(prof, duration)
			if err != nil {
				return nil, err
			}
			rpt, err := video.Upload(stream, ch)
			if err != nil {
				return nil, err
			}
			key := sp.name + "/" + prof.Name
			paper := paperFig2[key]
			rows = append(rows, Figure2Row{
				Scenario:        sp.name,
				Profile:         prof.Name,
				PacketLoss:      rpt.PacketLossRate,
				FrameLoss:       rpt.FrameLossRate,
				PaperPacketLoss: paper[0],
				PaperFrameLoss:  paper[1],
			})
		}
	}
	return rows, nil
}

// Figure2Table renders E2.
func Figure2Table(rows []Figure2Row) *Table {
	t := &Table{
		Title:   "Figure 2: packet and frame loss of live video upload over LTE",
		Columns: []string{"Scenario", "Profile", "Packet loss", "Frame loss", "Paper packet", "Paper frame"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Scenario, r.Profile, f3(r.PacketLoss), f3(r.FrameLoss),
			f3(r.PaperPacketLoss), f3(r.PaperFrameLoss),
		})
	}
	return t
}

// Figure3Row is one point of E3 (paper Figure 3).
type Figure3Row struct {
	Device       string
	Label        string
	TimeMS       float64
	MaxPowerW    float64
	PaperTimeMS  float64
	PaperPowerW  float64
	EnergyPerImg float64 // joules per inference — the perf/W story
}

// RunFigure3 measures Inception-v3 on the five paper processors.
func RunFigure3() ([]Figure3Row, error) {
	labels := map[string]string{
		hardware.DeviceMNCS:    "DSP-based",
		hardware.DeviceTX2MaxQ: "GPU#1",
		hardware.DeviceTX2MaxP: "GPU#2",
		hardware.DeviceI76700:  "CPU-based",
		hardware.DeviceV100:    "GPU#3",
	}
	paperMS := map[string]float64{
		hardware.DeviceMNCS:    334.5,
		hardware.DeviceTX2MaxQ: 242.8,
		hardware.DeviceTX2MaxP: 114.3,
		hardware.DeviceI76700:  153.9,
		hardware.DeviceV100:    26.8,
	}
	var rows []Figure3Row
	for _, name := range hardware.Figure3Devices() {
		p, err := hardware.Lookup(name)
		if err != nil {
			return nil, err
		}
		d, err := p.ExecTime(hardware.DNNInference, hardware.InceptionV3GFLOP)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, Figure3Row{
			Device:       name,
			Label:        labels[name],
			TimeMS:       float64(d) / float64(time.Millisecond),
			MaxPowerW:    p.MaxPowerW,
			PaperTimeMS:  paperMS[name],
			PaperPowerW:  p.MaxPowerW, // calibrated identically by design
			EnergyPerImg: p.EnergyJ(d),
		})
	}
	return rows, nil
}

// Figure3Table renders E3.
func Figure3Table(rows []Figure3Row) *Table {
	t := &Table{
		Title:   "Figure 3: Inception-v3 on heterogeneous processors",
		Columns: []string{"Processor", "Label", "Time (ms)", "Max power (W)", "Paper (ms)", "J/inference"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Device, r.Label, f2(r.TimeMS), f2(r.MaxPowerW), f2(r.PaperTimeMS), f3(r.EnergyPerImg),
		})
	}
	return t
}
