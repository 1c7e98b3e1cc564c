package sensors

import (
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

func TestNewOBDValidation(t *testing.T) {
	if _, err := NewOBD(nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

func TestOBDHealthyReading(t *testing.T) {
	o, err := NewOBD(sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	r := o.Read(time.Second, 100)
	if r.At != time.Second {
		t.Fatalf("At = %v", r.At)
	}
	if r.SpeedKPH < 95 || r.SpeedKPH > 105 {
		t.Fatalf("speed = %v, want ~100", r.SpeedKPH)
	}
	if r.RPM < 3000 || r.RPM > 4500 {
		t.Fatalf("RPM = %v, want ~3700 at 100 kph", r.RPM)
	}
	if len(r.DTCs) != 0 {
		t.Fatalf("healthy vehicle emitted DTCs: %v", r.DTCs)
	}
	if r.CoolantTempC < 85 || r.CoolantTempC > 95 {
		t.Fatalf("coolant = %v, want ~90", r.CoolantTempC)
	}
}

func TestOBDFaultProgressions(t *testing.T) {
	cases := []struct {
		fault FaultKind
		dtc   string
	}{
		{FaultOverheat, DTCOverheat},
		{FaultTireLeak, DTCTire},
		{FaultBatteryDrain, DTCBattery},
		{FaultMisfire, DTCMisfire},
	}
	for _, tc := range cases {
		o, _ := NewOBD(sim.NewRNG(2))
		o.InjectFault(tc.fault)
		found := false
		for i := 0; i < 200 && !found; i++ {
			r := o.Read(time.Duration(i)*time.Second, 60)
			for _, c := range r.DTCs {
				if c == tc.dtc {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("fault %d never produced DTC %s within 200 reads", tc.fault, tc.dtc)
		}
	}
}

func TestOBDClearFaultStopsProgression(t *testing.T) {
	o, _ := NewOBD(sim.NewRNG(3))
	o.InjectFault(FaultOverheat)
	for i := 0; i < 10; i++ {
		o.Read(time.Duration(i)*time.Second, 60)
	}
	o.ClearFault()
	before := o.Read(11*time.Second, 60).CoolantTempC
	after := o.Read(100*time.Second, 60).CoolantTempC
	if after > before+3 {
		t.Fatalf("coolant kept rising after ClearFault: %v -> %v", before, after)
	}
}

func TestOBDFuelMonotoneNonIncreasing(t *testing.T) {
	o, _ := NewOBD(sim.NewRNG(4))
	prev := o.Read(0, 120).FuelPct
	for i := 1; i < 100; i++ {
		cur := o.Read(time.Duration(i)*time.Second, 120).FuelPct
		if cur > prev {
			t.Fatalf("fuel increased: %v -> %v", prev, cur)
		}
		prev = cur
	}
}

func TestGPSFixTracksMobility(t *testing.T) {
	road, _ := geo.NewRoad(10000)
	mob := geo.Mobility{Road: road, SpeedMS: 10}
	g, err := NewGPS(mob, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	fix := g.Fix(100 * time.Second)
	if fix.X < 980 || fix.X > 1020 {
		t.Fatalf("fix.X = %v, want ~1000", fix.X)
	}
	if fix.Accuracy < 1.5 || fix.Accuracy > 5 {
		t.Fatalf("accuracy = %v out of range", fix.Accuracy)
	}
	if _, err := NewGPS(mob, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

func TestCameraValidation(t *testing.T) {
	if _, err := NewCamera(0, 720, 30, 2, sim.NewRNG(1)); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewCamera(1280, 720, 0, 2, sim.NewRNG(1)); err == nil {
		t.Fatal("zero fps accepted")
	}
	if _, err := NewCamera(1280, 720, 30, -1, sim.NewRNG(1)); err == nil {
		t.Fatal("negative density accepted")
	}
	if _, err := NewCamera(1280, 720, 30, 2, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
}

func TestCameraCapture(t *testing.T) {
	c, err := NewCamera(1280, 720, 30, 2, sim.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if c.FPS() != 30 {
		t.Fatalf("FPS = %d", c.FPS())
	}
	var totalVehicles int
	for i := 0; i < 300; i++ {
		f := c.Capture(time.Duration(i) * 33 * time.Millisecond)
		if f.Seq != i {
			t.Fatalf("seq = %d, want %d", f.Seq, i)
		}
		if f.Bytes <= 0 {
			t.Fatal("frame has no bytes")
		}
		if len(f.Plates) != f.Vehicles {
			t.Fatalf("plates %d != vehicles %d", len(f.Plates), f.Vehicles)
		}
		totalVehicles += f.Vehicles
	}
	mean := float64(totalVehicles) / 300
	if mean < 1.5 || mean > 2.5 {
		t.Fatalf("mean vehicles/frame = %v, want ~2", mean)
	}
}

func TestPlateFormat(t *testing.T) {
	c, _ := NewCamera(1280, 720, 30, 5, sim.NewRNG(7))
	f := c.Capture(0)
	for _, p := range f.Plates {
		if len(p) != 7 || p[3] != '-' {
			t.Fatalf("plate %q not in AAA-999 format", p)
		}
		if strings.ContainsAny(p[:3], "0123456789") {
			t.Fatalf("plate %q has digits in letter block", p)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	if got := poisson(sim.NewRNG(1), 0); got != 0 {
		t.Fatalf("poisson(0) = %d", got)
	}
	if got := poisson(sim.NewRNG(1), -1); got != 0 {
		t.Fatalf("poisson(-1) = %d", got)
	}
}
