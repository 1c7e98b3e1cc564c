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
