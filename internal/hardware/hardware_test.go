package hardware

import (
	"math"
	"testing"
	"time"
)

func TestCatalogAllValid(t *testing.T) {
	cat := Catalog()
	if len(cat) < 10 {
		t.Fatalf("catalog has %d devices, want >= 10", len(cat))
	}
	for name, p := range cat {
		if err := p.Validate(); err != nil {
			t.Errorf("device %s invalid: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("device keyed %q but named %q", name, p.Name)
		}
	}
}

func TestLookup(t *testing.T) {
	p, err := Lookup(DeviceV100)
	if err != nil || p.Kind != GPU {
		t.Fatalf("Lookup(v100) = %v, %v", p, err)
	}
	if _, err := Lookup("no-such-device"); err == nil {
		t.Fatal("Lookup of unknown device succeeded")
	}
}

// TestFigure3Calibration checks that the catalog reproduces the paper's
// Figure-3 Inception-v3 latencies exactly (they are calibration anchors).
func TestFigure3Calibration(t *testing.T) {
	wantMS := map[string]float64{
		DeviceMNCS:    334.5,
		DeviceTX2MaxQ: 242.8,
		DeviceTX2MaxP: 114.3,
		DeviceI76700:  153.9,
		DeviceV100:    26.8,
	}
	wantPowerW := map[string]float64{
		DeviceMNCS:    1.0,
		DeviceTX2MaxQ: 7.5,
		DeviceTX2MaxP: 15,
		DeviceI76700:  60,
		DeviceV100:    250,
	}
	for _, name := range Figure3Devices() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		d, err := p.ExecTime(DNNInference, InceptionV3GFLOP)
		if err != nil {
			t.Fatalf("ExecTime(%s): %v", name, err)
		}
		gotMS := float64(d) / float64(time.Millisecond)
		if math.Abs(gotMS-wantMS[name]) > 0.05 {
			t.Errorf("%s inception latency = %.2f ms, want %.2f", name, gotMS, wantMS[name])
		}
		if p.MaxPowerW != wantPowerW[name] {
			t.Errorf("%s max power = %v W, want %v", name, p.MaxPowerW, wantPowerW[name])
		}
	}
}

// TestFigure3Shape verifies the paper's qualitative claims: V100 is fastest
// and most power-hungry; the DSP stick is slowest but most frugal.
func TestFigure3Shape(t *testing.T) {
	cat := Catalog()
	v100, mncs := cat[DeviceV100], cat[DeviceMNCS]
	for _, name := range Figure3Devices() {
		p := cat[name]
		dV, _ := v100.ExecTime(DNNInference, InceptionV3GFLOP)
		dP, _ := p.ExecTime(DNNInference, InceptionV3GFLOP)
		if dP < dV {
			t.Errorf("%s beat V100 on inference", name)
		}
		if p.MaxPowerW > v100.MaxPowerW {
			t.Errorf("%s draws more power than V100", name)
		}
		if name != DeviceMNCS && p.MaxPowerW < mncs.MaxPowerW {
			t.Errorf("%s draws less power than the DSP stick", name)
		}
	}
}

func TestExecTimeErrors(t *testing.T) {
	asic, _ := Lookup(DeviceVCUASIC)
	if _, err := asic.ExecTime(General, 1); err == nil {
		t.Fatal("ASIC ran a General task")
	}
	if asic.EffectiveGFLOPS(DNNInference) <= 0 {
		t.Fatal("ASIC cannot run DNN inference")
	}
	if asic.EffectiveGFLOPS(Codec) > 0 {
		t.Fatal("ASIC claims to run Codec")
	}
	cpu, _ := Lookup(DeviceI76700)
	if _, err := cpu.ExecTime(Vision, -1); err == nil {
		t.Fatal("negative work accepted")
	}
	// Unknown classes fall back to General on a CPU.
	if cpu.EffectiveGFLOPS(Class(99)) <= 0 {
		t.Fatal("CPU refused unknown class despite General fallback")
	}
}

func TestPowerModel(t *testing.T) {
	p := &Processor{Name: "x", Kind: CPU, Throughput: map[Class]float64{General: 1}, IdlePowerW: 10, MaxPowerW: 110, Slots: 1}
	if got := p.EnergyJ(2 * time.Second); got != 220 {
		t.Fatalf("EnergyJ(2s) = %v, want 220", got)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Processor
	}{
		{"no name", Processor{Throughput: map[Class]float64{General: 1}, Slots: 1}},
		{"no throughput", Processor{Name: "x", Slots: 1}},
		{"zero rate", Processor{Name: "x", Throughput: map[Class]float64{General: 0}, Slots: 1}},
		{"power inverted", Processor{Name: "x", Throughput: map[Class]float64{General: 1}, IdlePowerW: 5, MaxPowerW: 1, Slots: 1}},
		{"no slots", Processor{Name: "x", Throughput: map[Class]float64{General: 1}}},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want error", tc.name)
		}
	}
}

func TestExecutorSerialQueueing(t *testing.T) {
	p := &Processor{Name: "x", Kind: CPU, Throughput: map[Class]float64{General: 1}, MaxPowerW: 10, Slots: 1}
	e, err := NewExecutor(p)
	if err != nil {
		t.Fatal(err)
	}
	s1, f1, err := e.Submit(0, General, 2) // 2s of work
	if err != nil || s1 != 0 || f1 != 2*time.Second {
		t.Fatalf("first submit = %v,%v,%v", s1, f1, err)
	}
	s2, f2, err := e.Submit(0, General, 3)
	if err != nil || s2 != 2*time.Second || f2 != 5*time.Second {
		t.Fatalf("queued submit = %v,%v,%v; want start 2s finish 5s", s2, f2, err)
	}
	// A submission after the queue drains starts at its own arrival.
	s3, f3, err := e.Submit(10*time.Second, General, 1)
	if err != nil || s3 != 10*time.Second || f3 != 11*time.Second {
		t.Fatalf("late submit = %v,%v,%v", s3, f3, err)
	}
	if e.Completed() != 3 {
		t.Fatalf("Completed = %d, want 3", e.Completed())
	}
	if got := e.ActiveEnergyJ(); got != 60 {
		t.Fatalf("energy = %v J, want 60 (6s at 10W)", got)
	}
}

func TestExecutorParallelSlots(t *testing.T) {
	p := &Processor{Name: "x", Kind: GPU, Throughput: map[Class]float64{General: 1}, MaxPowerW: 1, Slots: 2}
	e, _ := NewExecutor(p)
	_, f1, _ := e.Submit(0, General, 4)
	_, f2, _ := e.Submit(0, General, 4)
	if f1 != 4*time.Second || f2 != 4*time.Second {
		t.Fatalf("two slots should run in parallel: %v, %v", f1, f2)
	}
	s3, _, _ := e.Submit(0, General, 1)
	if s3 != 4*time.Second {
		t.Fatalf("third task start = %v, want 4s", s3)
	}
}

func TestExecutorEstimateMatchesSubmit(t *testing.T) {
	p := &Processor{Name: "x", Kind: CPU, Throughput: map[Class]float64{General: 2}, MaxPowerW: 1, Slots: 1}
	e, _ := NewExecutor(p)
	est, err := e.EstimateFinish(0, General, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, fin, _ := e.Submit(0, General, 4)
	if est != fin {
		t.Fatalf("estimate %v != actual %v", est, fin)
	}
}

func TestExecutorUtilization(t *testing.T) {
	p := &Processor{Name: "x", Kind: CPU, Throughput: map[Class]float64{General: 1}, MaxPowerW: 1, Slots: 1}
	e, _ := NewExecutor(p)
	e.Submit(0, General, 5)
	if u := e.Utilization(10 * time.Second); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if u := e.Utilization(0); u != 0 {
		t.Fatalf("utilization(0) = %v, want 0", u)
	}
	if u := e.Utilization(time.Second); u != 1 {
		t.Fatalf("utilization cap = %v, want 1", u)
	}
}

func TestNewExecutorValidation(t *testing.T) {
	if _, err := NewExecutor(nil); err == nil {
		t.Fatal("NewExecutor(nil) succeeded")
	}
	if _, err := NewExecutor(&Processor{}); err == nil {
		t.Fatal("NewExecutor(invalid) succeeded")
	}
}

func TestStorageTimes(t *testing.T) {
	s := &Storage{Name: "t", ReadMBps: 100, OpLatency: time.Millisecond}
	rt, err := s.ReadTime(100)
	if err != nil || rt != time.Millisecond+time.Second {
		t.Fatalf("ReadTime = %v, %v; want 1.001s", rt, err)
	}
}

func TestStorageErrors(t *testing.T) {
	s := DefaultSSD()
	if _, err := s.ReadTime(-1); err == nil {
		t.Fatal("negative read accepted")
	}
	broken := &Storage{Name: "b"}
	if _, err := broken.ReadTime(1); err == nil {
		t.Fatal("zero-rate read accepted")
	}
}

func TestClassAndKindStrings(t *testing.T) {
	if General.String() != "general" || DNNInference.String() != "dnn-inference" {
		t.Fatal("class names wrong")
	}
	if Class(42).String() != "class(42)" {
		t.Fatal("unknown class name wrong")
	}
	if GPU.String() != "gpu" || ASIC.String() != "asic" {
		t.Fatal("kind names wrong")
	}
	if Kind(42).String() != "kind(42)" {
		t.Fatal("unknown kind name wrong")
	}
}
