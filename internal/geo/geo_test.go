package geo

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestMPHConversion(t *testing.T) {
	// 70 MPH ≈ 31.29 m/s
	got := MPH(70)
	if math.Abs(got-31.2928) > 0.01 {
		t.Fatalf("MPH(70) = %v, want ~31.29", got)
	}
	if MPH(0) != 0 {
		t.Fatal("MPH(0) != 0")
	}
}

func TestPointDist(t *testing.T) {
	a, b := Point{0, 0}, Point{3, 4}
	if d := a.Dist(b); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d := a.Dist(a); d != 0 {
		t.Fatalf("self Dist = %v, want 0", d)
	}
}

func TestNewRoadValidation(t *testing.T) {
	if _, err := NewRoad(0); err == nil {
		t.Fatal("NewRoad(0) succeeded")
	}
	if _, err := NewRoad(-5); err == nil {
		t.Fatal("NewRoad(-5) succeeded")
	}
	r, err := NewRoad(1000)
	if err != nil || r.Length != 1000 {
		t.Fatalf("NewRoad(1000) = %v, %v", r, err)
	}
}

func TestPlaceStationsUniform(t *testing.T) {
	r, _ := NewRoad(10000)
	placed := r.PlaceStations(5, BaseStation, 1200, 30, "bs")
	if len(placed) != 5 {
		t.Fatalf("placed %d, want 5", len(placed))
	}
	// Spacing 2000m, first at 1000m.
	for i, s := range placed {
		want := 1000 + 2000*float64(i)
		if math.Abs(s.Pos.X-want) > 1e-9 {
			t.Fatalf("station %d at %v, want %v", i, s.Pos.X, want)
		}
		if s.Kind != BaseStation || s.Radius != 1200 || s.Pos.Y != 30 {
			t.Fatalf("station %d misconfigured: %+v", i, s)
		}
	}
	if got := len(r.StationsOfKind(BaseStation)); got != 5 {
		t.Fatalf("StationsOfKind = %d, want 5", got)
	}
	if got := r.PlaceStations(0, RSU, 100, 0, "r"); got != nil {
		t.Fatalf("PlaceStations(0) = %v, want nil", got)
	}
}

func TestCoveringStations(t *testing.T) {
	r, _ := NewRoad(10000)
	r.PlaceStations(5, BaseStation, 1500, 0, "bs")
	// At x=1000 (station 0 center), covered by station 0 and maybe 1 (at 3000, dist 2000 > 1500).
	cov := r.CoveringStations(Point{X: 1000})
	if len(cov) != 1 || cov[0].ID != "bs-0" {
		t.Fatalf("coverage at 1000 = %v, want [bs-0]", cov)
	}
	// At x=2000 midpoint, dist to both neighbors = 1000 < 1500: two covers.
	cov = r.CoveringStations(Point{X: 2000})
	if len(cov) != 2 {
		t.Fatalf("coverage at midpoint = %d stations, want 2", len(cov))
	}
}

func TestNearestStation(t *testing.T) {
	r, _ := NewRoad(10000)
	r.PlaceStations(5, BaseStation, 1500, 0, "bs")
	r.PlaceStations(2, RSU, 300, 0, "rsu")
	s, ok := r.NearestStation(Point{X: 900}, BaseStation)
	if !ok || s.ID != "bs-0" {
		t.Fatalf("nearest = %v, %v; want bs-0", s, ok)
	}
	if _, ok := r.NearestStation(Point{X: 0}, TrafficSignal); ok {
		t.Fatal("found traffic signal on road without any")
	}
}

func TestMobilityPositionWraps(t *testing.T) {
	r, _ := NewRoad(1000)
	m := Mobility{Road: r, SpeedMS: 10, StartX: 0}
	p := m.PositionAt(50 * time.Second) // 500m
	if math.Abs(p.X-500) > 1e-9 {
		t.Fatalf("pos at 50s = %v, want 500", p.X)
	}
	p = m.PositionAt(150 * time.Second) // 1500m wraps to 500
	if math.Abs(p.X-500) > 1e-9 {
		t.Fatalf("pos at 150s = %v, want 500 (wrapped)", p.X)
	}
}

func TestMobilityParked(t *testing.T) {
	r, _ := NewRoad(1000)
	m := Mobility{Road: r, SpeedMS: 0, StartX: 123, LaneY: 4}
	for _, d := range []time.Duration{0, time.Minute, time.Hour} {
		p := m.PositionAt(d)
		if p.X != 123 || p.Y != 4 {
			t.Fatalf("parked vehicle moved: %v", p)
		}
	}
}

func TestDwellTimeScalesInverselyWithSpeed(t *testing.T) {
	r, _ := NewRoad(10000)
	s := Station{ID: "bs", Kind: BaseStation, Pos: Point{X: 500, Y: 0}, Radius: 1000}
	slow := Mobility{Road: r, SpeedMS: MPH(35)}
	fast := Mobility{Road: r, SpeedMS: MPH(70)}
	ds, df := slow.DwellTime(s), fast.DwellTime(s)
	if ds <= df {
		t.Fatalf("dwell slow (%v) <= dwell fast (%v)", ds, df)
	}
	ratio := float64(ds) / float64(df)
	if math.Abs(ratio-2) > 0.01 {
		t.Fatalf("dwell ratio = %v, want ~2 (speed doubled)", ratio)
	}
}

func TestDwellTimeOutOfLane(t *testing.T) {
	s := Station{Pos: Point{X: 0, Y: 0}, Radius: 100}
	m := Mobility{SpeedMS: 10, LaneY: 150}
	if d := m.DwellTime(s); d != 0 {
		t.Fatalf("dwell for out-of-range lane = %v, want 0", d)
	}
}

func TestDwellTimeParkedIsHuge(t *testing.T) {
	s := Station{Pos: Point{X: 0, Y: 0}, Radius: 100}
	m := Mobility{SpeedMS: 0, LaneY: 0}
	if d := m.DwellTime(s); d < 24*time.Hour {
		t.Fatalf("parked dwell = %v, want effectively infinite", d)
	}
}

func TestHandoffRateProportionalToSpeed(t *testing.T) {
	r, _ := NewRoad(10000)
	r.PlaceStations(10, BaseStation, 800, 0, "bs") // spacing 1000m
	slow := Mobility{Road: r, SpeedMS: 10}
	fast := Mobility{Road: r, SpeedMS: 20}
	hs, hf := slow.HandoffRate(BaseStation), fast.HandoffRate(BaseStation)
	if math.Abs(hs-0.01) > 1e-9 {
		t.Fatalf("handoff rate = %v, want 0.01/s", hs)
	}
	if math.Abs(hf/hs-2) > 1e-9 {
		t.Fatalf("handoff rate did not double with speed: %v vs %v", hf, hs)
	}
	parked := Mobility{Road: r, SpeedMS: 0}
	if parked.HandoffRate(BaseStation) != 0 {
		t.Fatal("parked handoff rate != 0")
	}
}

func TestStationKindString(t *testing.T) {
	cases := map[StationKind]string{
		BaseStation:     "base-station",
		RSU:             "rsu",
		TrafficSignal:   "traffic-signal",
		StationKind(99): "station-kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", int(k), got, want)
		}
	}
}

func TestMobilityPositionNonNegativeProperty(t *testing.T) {
	r, _ := NewRoad(5000)
	if err := quick.Check(func(speed float64, secs uint16) bool {
		speed = math.Mod(math.Abs(speed), 50)
		m := Mobility{Road: r, SpeedMS: speed}
		p := m.PositionAt(time.Duration(secs) * time.Second)
		return p.X >= 0 && p.X < r.Length
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoveringStationsIntoMatchesAllocatingForm(t *testing.T) {
	r, _ := NewRoad(10000)
	r.PlaceStations(5, RSU, 800, 0, "rsu")
	r.PlaceStations(3, BaseStation, 2000, 0, "bs")
	buf := make([]Station, 0, 8)
	for x := 0.0; x <= 10000; x += 137 {
		p := Point{X: x}
		buf = r.CoveringStationsInto(p, buf[:0])
		alloc := r.CoveringStations(p)
		if len(buf) != len(alloc) {
			t.Fatalf("x=%v: into=%d alloc=%d", x, len(buf), len(alloc))
		}
		for i := range buf {
			if buf[i] != alloc[i] {
				t.Fatalf("x=%v station %d: %+v != %+v", x, i, buf[i], alloc[i])
			}
		}
	}
}

func TestCoveringStationsIntoAppends(t *testing.T) {
	r, _ := NewRoad(1000)
	r.PlaceStations(1, RSU, 1000, 0, "rsu")
	seed := []Station{{ID: "sentinel"}}
	out := r.CoveringStationsInto(Point{X: 500}, seed)
	if len(out) != 2 || out[0].ID != "sentinel" || out[1].ID != "rsu-0" {
		t.Fatalf("append semantics broken: %+v", out)
	}
}

// TestCoveringStationsIntoAllocFree pins the hot-path fix: with a
// pre-grown reused buffer, per-round coverage queries allocate nothing.
func TestCoveringStationsIntoAllocFree(t *testing.T) {
	r, _ := NewRoad(20000)
	r.PlaceStations(16, RSU, 600, 0, "rsu")
	r.PlaceStations(20, BaseStation, 900, 0, "bs")
	buf := make([]Station, 0, 64)
	p := Point{X: 9990}
	if n := testing.AllocsPerRun(100, func() {
		buf = r.CoveringStationsInto(p, buf[:0])
	}); n != 0 {
		t.Fatalf("CoveringStationsInto allocated %.1f per run with a reused buffer", n)
	}
}
