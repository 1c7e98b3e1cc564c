package tasks

import (
	"math"
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/sim"
)

func TestTaskValidate(t *testing.T) {
	bad := []Task{
		{},
		{ID: "x", GFLOP: -1},
		{ID: "x", InputBytes: -1},
		{ID: "x", OutputBytes: -1},
		{ID: "x", MemoryMB: -1},
	}
	for i, task := range bad {
		task := task
		if err := task.Validate(); err == nil {
			t.Errorf("case %d: Validate passed", i)
		}
	}
	good := Task{ID: "ok", Class: hardware.General, GFLOP: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
}

func TestDAGValidate(t *testing.T) {
	cases := []struct {
		name string
		dag  DAG
	}{
		{"no name", DAG{Tasks: []*Task{{ID: "a"}}}},
		{"empty", DAG{Name: "x"}},
		{"dup id", DAG{Name: "x", Tasks: []*Task{{ID: "a"}, {ID: "a"}}}},
		{"unknown dep", DAG{Name: "x", Tasks: []*Task{{ID: "a", Deps: []string{"b"}}}}},
		{"cycle", DAG{Name: "x", Tasks: []*Task{
			{ID: "a", Deps: []string{"b"}},
			{ID: "b", Deps: []string{"a"}},
		}}},
		{"self cycle", DAG{Name: "x", Tasks: []*Task{{ID: "a", Deps: []string{"a"}}}}},
	}
	for _, tc := range cases {
		if err := tc.dag.Validate(); err == nil {
			t.Errorf("%s: Validate passed", tc.name)
		}
	}
}

func TestTopoOrderRespectsDepsAndDeclarationOrder(t *testing.T) {
	d := DAG{Name: "x", Tasks: []*Task{
		{ID: "c", Deps: []string{"a", "b"}},
		{ID: "a"},
		{ID: "b", Deps: []string{"a"}},
		{ID: "d"},
	}}
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	posOf := map[string]int{}
	for i, task := range order {
		posOf[task.ID] = i
	}
	if posOf["a"] > posOf["b"] || posOf["b"] > posOf["c"] || posOf["a"] > posOf["c"] {
		t.Fatalf("topo order violates deps: %v", posOf)
	}
	// Ready ties break on declaration order: the first ready set is {a, d}
	// and a (index 1) precedes d (index 3). After a, b (index 2) precedes
	// d; after b, c (index 0) precedes d.
	want := []string{"a", "b", "c", "d"}
	for i, id := range want {
		if order[i].ID != id {
			t.Fatalf("tie-break order[%d] = %s, want %s", i, order[i].ID, id)
		}
	}
}

func TestRootsAndSuccessors(t *testing.T) {
	d := ALPR()
	c := d.Compiled()
	for i, task := range d.Tasks {
		if root := len(c.Deps(i)) == 0; root != (task.ID == "motion-detect") {
			t.Fatalf("%s: root = %v, want only motion-detect", task.ID, root)
		}
	}
	succ := d.Successors("motion-detect")
	if len(succ) != 1 || succ[0] != "plate-detect" {
		t.Fatalf("successors = %v", succ)
	}
	if got := d.Successors("plate-recognize"); len(got) != 0 {
		t.Fatalf("sink has successors: %v", got)
	}
}

func TestCriticalPath(t *testing.T) {
	d := DAG{Name: "x", Tasks: []*Task{
		{ID: "a", GFLOP: 1},
		{ID: "b", GFLOP: 5},
		{ID: "c", GFLOP: 2, Deps: []string{"a"}},
		{ID: "d", GFLOP: 1, Deps: []string{"b", "c"}},
	}}
	cp, err := d.CriticalPathGFLOP()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 6 { // b(5) -> d(1)
		t.Fatalf("critical path = %v, want 6", cp)
	}
}

func TestClone(t *testing.T) {
	d := ALPR()
	c := d.Clone()
	c.Tasks[0].GFLOP = 999
	c.Tasks[1].Deps[0] = "poisoned"
	if d.Tasks[0].GFLOP == 999 {
		t.Fatal("clone shares task structs")
	}
	if d.Tasks[1].Deps[0] == "poisoned" {
		t.Fatal("clone shares dep slices")
	}
}

func TestGet(t *testing.T) {
	d := ALPR()
	if task, ok := d.Get("plate-detect"); !ok || task.Name != "License Plate Detection" {
		t.Fatalf("Get = %v, %v", task, ok)
	}
	if _, ok := d.Get("nope"); ok {
		t.Fatal("Get found nonexistent task")
	}
}

// TestTable1Calibration verifies that the workload constants reproduce the
// paper's Table I exactly on the calibrated AWS vCPU.
func TestTable1Calibration(t *testing.T) {
	host, err := hardware.Lookup(hardware.DeviceAWSVCPU)
	if err != nil {
		t.Fatal(err)
	}
	wantMS := map[string]float64{
		"lane-detect":         13.57,
		"vehicle-detect-haar": 269.46,
		"vehicle-detect-dnn":  13971.98,
	}
	for _, task := range Table1Workloads() {
		d, err := host.ExecTime(task.Class, task.GFLOP)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		gotMS := float64(d) / float64(time.Millisecond)
		if math.Abs(gotMS-wantMS[task.ID]) > 0.01 {
			t.Errorf("%s latency = %.2f ms, want %.2f", task.ID, gotMS, wantMS[task.ID])
		}
	}
}

// TestTable1Ratios checks the paper's headline ratio: the DNN detector is
// about 51x slower than Haar on the same CPU.
func TestTable1Ratios(t *testing.T) {
	ratio := VehicleDetectionDNNGFLOP / VehicleDetectionHaarGFLOP
	if math.Abs(ratio-51.85) > 0.5 {
		t.Fatalf("DNN/Haar ratio = %.2f, want ~51.85", ratio)
	}
}

func TestLibraryDAGsAllValid(t *testing.T) {
	lib := Library()
	if len(lib) < 6 {
		t.Fatalf("library has %d DAGs, want >= 6", len(lib))
	}
	for name, d := range lib {
		if err := d.Validate(); err != nil {
			t.Errorf("library DAG %s invalid: %v", name, err)
		}
		if d.Name != name {
			t.Errorf("DAG keyed %q but named %q", name, d.Name)
		}
	}
}

func TestSingleTaskWorkloadsValid(t *testing.T) {
	for _, task := range []*Task{LaneDetection(), VehicleDetectionHaar(), VehicleDetectionDNN()} {
		if err := task.Validate(); err != nil {
			t.Errorf("%s invalid: %v", task.ID, err)
		}
	}
}

func TestALPRStageOrdering(t *testing.T) {
	d := ALPR()
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"motion-detect", "plate-detect", "plate-recognize"}
	for i, task := range order {
		if task.ID != want[i] {
			t.Fatalf("ALPR order[%d] = %s, want %s", i, task.ID, want[i])
		}
	}
	// Data flows shrink along the pipeline — the premise of edge filtering.
	for i := 1; i < len(order); i++ {
		if order[i].InputBytes > order[i-1].InputBytes {
			t.Fatalf("ALPR stage %s input grew", order[i].ID)
		}
	}
}

func TestSensorFusionParallelBranches(t *testing.T) {
	d := SensorFusion()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	c, roots, total := d.Compiled(), 0, 0.0
	for i, task := range d.Tasks {
		if len(c.Deps(i)) == 0 {
			roots++
		}
		total += task.GFLOP
	}
	if roots != 2 {
		t.Fatalf("roots = %d, want 2 parallel branches", roots)
	}
	// The critical path excludes the shorter parallel branch.
	cp, err := d.CriticalPathGFLOP()
	if err != nil {
		t.Fatal(err)
	}
	if cp >= total {
		t.Fatalf("critical path %v not below total %v (no parallelism)", cp, total)
	}
	fuse, _ := d.Get("fuse")
	if len(fuse.Deps) != 2 {
		t.Fatalf("fuse deps = %v", fuse.Deps)
	}
}

func TestRandomDAGDefaults(t *testing.T) {
	rng := sim.NewRNG(42)
	for i := 0; i < 10; i++ {
		d, err := RandomDAG("r", RandomDAGConfig{}, rng.Fork())
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Tasks) < 3 || len(d.Tasks) > 12 {
			t.Fatalf("size = %d outside defaults", len(d.Tasks))
		}
		for _, task := range d.Tasks {
			if task.GFLOP <= 0 || task.GFLOP > 20 {
				t.Fatalf("work = %v outside defaults", task.GFLOP)
			}
		}
	}
	// Custom bounds respected.
	d, err := RandomDAG("r", RandomDAGConfig{MinTasks: 7, MaxTasks: 7}, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Tasks) != 7 {
		t.Fatalf("fixed size = %d", len(d.Tasks))
	}
}
