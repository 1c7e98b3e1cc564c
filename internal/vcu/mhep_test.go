package vcu

import (
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
		if d.Tier() != FirstLevel {
			t.Errorf("device %s tier = %v, want 1stHEP", d.Name(), d.Tier())
		}
	}
	if m.Storage() == nil {
		t.Fatal("no storage attached")
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
		if len(p.Throughput) == 0 {
			t.Fatalf("profile %s has no throughput", p.Name)
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
