package vcu

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/hardware"
)

func TestDefaultVCU(t *testing.T) {
	m, err := DefaultVCU()
	if err != nil {
		t.Fatal(err)
	}
	devs := m.Devices()
	if len(devs) != 4 {
		t.Fatalf("default VCU has %d devices, want 4", len(devs))
	}
	for _, d := range devs {
		if d.tier != FirstLevel {
			t.Errorf("device %s tier = %v, want 1stHEP", d.Name(), d.tier)
		}
	}
}

func TestAddSecondLevel(t *testing.T) {
	m, _ := DefaultVCU()
	phone, _ := hardware.Lookup(hardware.DevicePhone)
	if err := m.AddDevice(phone, SecondLevel, WiFiIO()); err != nil {
		t.Fatal(err)
	}
	if len(m.Devices()) != 5 {
		t.Fatal("phone not added")
	}
	if err := m.AddDevice(phone, SecondLevel, WiFiIO()); err == nil {
		t.Fatal("duplicate device accepted")
	}
}

func TestAddDeviceValidation(t *testing.T) {
	m := NewMHEP()
	if err := m.AddDevice(nil, FirstLevel, PCIeIO()); err == nil {
		t.Fatal("nil processor accepted")
	}
	p, _ := hardware.Lookup(hardware.DevicePhone)
	if err := m.AddDevice(p, SecondLevel, IO{}); err == nil {
		t.Fatal("zero IO accepted")
	}
	// A throughput with no JSON encoding is refused when the device is
	// managed, not when its profile is first served.
	nan := *p
	nan.Throughput = map[hardware.Class]float64{hardware.General: math.NaN()}
	if err := m.AddDevice(&nan, SecondLevel, WiFiIO()); err == nil {
		t.Fatal("NaN throughput accepted")
	}
}

func TestProfiles(t *testing.T) {
	m, _ := DefaultVCU()
	profs := m.Profiles(0, time.Minute)
	if len(profs) != 4 {
		t.Fatalf("profiles = %d", len(profs))
	}
	for _, p := range profs {
		if p.Name == "" || p.Kind == "" || p.Tier != "1stHEP" {
			t.Fatalf("bad profile %+v", p)
		}
		var tp map[string]float64
		if err := json.Unmarshal(p.Throughput, &tp); err != nil || len(tp) == 0 {
			t.Fatalf("profile %s throughput %s: %v", p.Name, p.Throughput, err)
		}
		d, _ := m.Device(p.Name)
		for c, v := range d.Processor().Throughput {
			if tp[c.String()] != v {
				t.Fatalf("profile %s: %v throughput %v, processor has %v", p.Name, c, tp[c.String()], v)
			}
		}
		if len(tp) != len(d.Processor().Throughput) {
			t.Fatalf("profile %s: %d throughput classes, processor has %d", p.Name, len(tp), len(d.Processor().Throughput))
		}
	}
}

func TestTransferTime(t *testing.T) {
	m, _ := DefaultVCU()
	cpu, _ := m.Device(hardware.DeviceI76700)
	gpu, _ := m.Device(hardware.DeviceTX2MaxP)
	if got := TransferTime(cpu, cpu, 1e6); got != 0 {
		t.Fatalf("same-device transfer = %v, want 0", got)
	}
	if got := TransferTime(cpu, gpu, 0); got != 0 {
		t.Fatalf("zero-byte transfer = %v, want 0", got)
	}
	got := TransferTime(cpu, gpu, 8e6) // 8 MB over 8 GB/s = 1ms + 20us
	want := 20*time.Microsecond + time.Millisecond
	if got != want {
		t.Fatalf("transfer = %v, want %v", got, want)
	}
	if TransferTime(nil, gpu, 1) != 0 || TransferTime(cpu, nil, 1) != 0 {
		t.Fatal("nil device transfer != 0")
	}
}

func TestSecondLevelSlowerIO(t *testing.T) {
	m, _ := DefaultVCU()
	phone, _ := hardware.Lookup(hardware.DevicePhone)
	if err := m.AddDevice(phone, SecondLevel, WiFiIO()); err != nil {
		t.Fatal(err)
	}
	cpu, _ := m.Device(hardware.DeviceI76700)
	ph, _ := m.Device(hardware.DevicePhone)
	gpu, _ := m.Device(hardware.DeviceTX2MaxP)
	onboard := TransferTime(cpu, gpu, 1e6)
	wireless := TransferTime(cpu, ph, 1e6)
	if wireless <= onboard {
		t.Fatalf("wireless transfer (%v) not slower than PCIe (%v)", wireless, onboard)
	}
}

func TestTierString(t *testing.T) {
	if FirstLevel.String() != "1stHEP" || SecondLevel.String() != "2ndHEP" {
		t.Fatal("tier names wrong")
	}
	if Tier(9).String() != "tier(9)" {
		t.Fatal("unknown tier name wrong")
	}
}

// TestDeviceRateTableMatchesProcessor holds the planner's per-device rate
// table to the processor it was read from: the same capability, the same
// execution time to the nanosecond and the same refusal, for every catalog
// processor, every class of the enum and classes outside it.
func TestDeviceRateTableMatchesProcessor(t *testing.T) {
	classes := append(hardware.Classes(), 0, -1, hardware.Class(len(hardware.Classes())+1), 99)
	for name, p := range hardware.Catalog() {
		d, err := NewDevice(p, FirstLevel, PCIeIO())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range classes {
			if got, want := d.rate(c) > 0, p.EffectiveGFLOPS(c) > 0; got != want {
				t.Errorf("%s %v: capable %v, processor says %v", name, c, got, want)
			}
			for _, gflop := range []float64{0, 1e-9, 0.37, 3, 1234.5, -1} {
				got, gotErr := d.execTime(c, gflop)
				want, wantErr := p.ExecTime(c, gflop)
				if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("%s %v %v GFLOP: %v (%v), processor %v (%v)", name, c, gflop, got, gotErr, want, wantErr)
				}
			}
		}
	}
}
