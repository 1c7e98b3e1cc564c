package geo

import (
	"math"
	"testing"
	"time"
)

func testTrip(t *testing.T) *Trip {
	t.Helper()
	road, err := NewRoad(100000)
	if err != nil {
		t.Fatal(err)
	}
	return &Trip{
		Road: road,
		Legs: []Leg{
			{SpeedMS: 0, Duration: 10 * time.Second},
			{SpeedMS: 10, Duration: 20 * time.Second},
			{SpeedMS: 30, Duration: 10 * time.Second},
		},
	}
}

func TestTripValidate(t *testing.T) {
	road, _ := NewRoad(1000)
	bad := []*Trip{
		{Legs: []Leg{{SpeedMS: 1, Duration: time.Second}}},
		{Road: road},
		{Road: road, Legs: []Leg{{SpeedMS: -1, Duration: time.Second}}},
		{Road: road, Legs: []Leg{{SpeedMS: 1, Duration: 0}}},
	}
	for i, trip := range bad {
		if err := trip.Validate(); err == nil {
			t.Errorf("case %d: Validate passed", i)
		}
	}
	if err := testTrip(t).Validate(); err != nil {
		t.Fatalf("valid trip rejected: %v", err)
	}
}

func TestTripSpeedAt(t *testing.T) {
	trip := testTrip(t)
	cases := map[time.Duration]float64{
		0:                0,
		5 * time.Second:  0,
		10 * time.Second: 10, // leg boundary belongs to the next leg
		15 * time.Second: 10,
		30 * time.Second: 30,
		39 * time.Second: 30,
		99 * time.Second: 30, // past the plan: final speed continues
	}
	for at, want := range cases {
		if got := trip.SpeedAt(at); got != want {
			t.Errorf("SpeedAt(%v) = %v, want %v", at, got, want)
		}
	}
	if trip.SpeedAt(-time.Second) != 0 {
		t.Fatal("negative time speed")
	}
}

func TestTripDistanceAt(t *testing.T) {
	trip := testTrip(t)
	cases := map[time.Duration]float64{
		0:                0,
		10 * time.Second: 0,   // stopped leg
		20 * time.Second: 100, // 10 s at 10 m/s
		30 * time.Second: 200, // full second leg
		40 * time.Second: 500, // + 10 s at 30
		50 * time.Second: 800, // overshoot continues at 30
	}
	for at, want := range cases {
		if got := trip.DistanceAt(at); math.Abs(got-want) > 1e-9 {
			t.Errorf("DistanceAt(%v) = %v, want %v", at, got, want)
		}
	}
	if trip.DistanceAt(-time.Second) != 0 {
		t.Fatal("negative time distance")
	}
}

func TestTripDistanceMonotone(t *testing.T) {
	trip := testTrip(t)
	prev := -1.0
	for at := time.Duration(0); at <= time.Minute; at += time.Second {
		d := trip.DistanceAt(at)
		if d < prev {
			t.Fatalf("distance decreased at %v: %v -> %v", at, prev, d)
		}
		prev = d
	}
}

func TestTripPositionWraps(t *testing.T) {
	road, _ := NewRoad(300)
	trip := &Trip{Road: road, Legs: []Leg{{SpeedMS: 10, Duration: time.Hour}}}
	p := trip.PositionAt(35 * time.Second) // 350 m -> wraps to 50
	if math.Abs(p.X-50) > 1e-9 {
		t.Fatalf("wrapped position = %v", p.X)
	}
}

func TestTripMobilityBridge(t *testing.T) {
	trip := testTrip(t)
	at := 25 * time.Second
	mob := trip.MobilityAt(at)
	if mob.SpeedMS != trip.SpeedAt(at) {
		t.Fatalf("bridge speed = %v", mob.SpeedMS)
	}
	tripPos := trip.PositionAt(at)
	mobPos := mob.PositionAt(at)
	if math.Abs(tripPos.X-mobPos.X) > 1e-6 {
		t.Fatalf("bridge position %v != trip position %v", mobPos.X, tripPos.X)
	}
}

func TestCommuteTripShape(t *testing.T) {
	road, _ := NewRoad(100000)
	trip := CommuteTrip(road)
	if err := trip.Validate(); err != nil {
		t.Fatal(err)
	}
	if trip.SpeedAt(0) != 0 {
		t.Fatal("commute does not start stopped")
	}
	if trip.SpeedAt(7*time.Minute) != MPH(70) {
		t.Fatalf("highway leg speed = %v", trip.SpeedAt(7*time.Minute))
	}
	var planned time.Duration
	for _, leg := range trip.Legs {
		planned += leg.Duration
	}
	if planned != 12*time.Minute+30*time.Second {
		t.Fatalf("commute lasts %v", planned)
	}
}
