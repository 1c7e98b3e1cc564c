package core

import (
	"testing"
	"time"

	"repro/internal/edgeos"
	"repro/internal/hardware"
	"repro/internal/tasks"
	"repro/internal/vcu"
)

// TestScenarioDayInTheLife drives the full platform through a realistic
// sequence: boot, install the paper's four service types, collect data
// while invoking services across changing speeds, and end with cloud
// migration. Every module is exercised
// against the same virtual timeline.
func TestScenarioDayInTheLife(t *testing.T) {
	p := newPlatform(t)
	services := []*edgeos.Service{
		{Name: "pedestrian-alert", Priority: edgeos.PrioritySafety,
			Deadline: 500 * time.Millisecond, DAG: tasks.PedestrianAlert(),
			TEE: true, Image: []byte("ped-v1")},
		{Name: "real-time-diagnostics", Priority: edgeos.PriorityInteractive,
			Deadline: 2 * time.Second, DAG: tasks.Diagnostics(), Image: []byte("diag-v1")},
		{Name: "infotainment", Priority: edgeos.PriorityBackground,
			DAG: tasks.InfotainmentDecode(), Image: []byte("info-v1")},
		{Name: "kidnapper-search", Priority: edgeos.PriorityInteractive,
			Deadline: 2 * time.Second, DAG: tasks.ALPR(), Image: []byte("a3-v1")},
	}
	for _, s := range services {
		if err := p.InstallService(s); err != nil {
			t.Fatalf("install %s: %v", s.Name, err)
		}
	}
	if err := p.StartCollection(time.Second); err != nil {
		t.Fatal(err)
	}

	invocations := 0
	for leg, mph := range []float64{0, 35, 70, 35} {
		p.SetSpeedMPH(mph)
		for i := 0; i < 5; i++ {
			for _, s := range services {
				res, err := p.InvokeService(s.Name)
				if err != nil {
					t.Fatalf("leg %d invoke %s: %v", leg, s.Name, err)
				}
				if !res.HungUp {
					invocations++
				}
			}
		}
		// A minute of cruising between service bursts.
		if err := p.Engine().RunUntil(p.Engine().Now() + time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if invocations < 60 {
		t.Fatalf("completed %d invocations, want >= 60", invocations)
	}

	// Data kept flowing the whole time.
	count := p.DDI().Store().Count()
	if count < 4*60*4 { // 4+ records/second for 4+ minutes
		t.Fatalf("DDI holds %d records, want >= 960", count)
	}
	// End of day: migrate everything older than half the drive.
	p.StopCollection()
	n, _, err := p.MigrateOldData(p.Engine().Now() / 2)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing migrated")
	}
	if p.DDI().Store().Count()+n != count {
		t.Fatal("migration lost records")
	}
	// Safety service stats reflect priority work.
	st, err := p.Elastic().Stats("pedestrian-alert")
	if err != nil {
		t.Fatal(err)
	}
	if st.Invocations < 20 {
		t.Fatalf("pedestrian-alert ran %d times", st.Invocations)
	}
}

// TestScenarioPhoneJoins exercises the 2ndHEP end to end: a passenger
// phone joins the mHEP of a running platform and scheduling carries on.
func TestScenarioPhoneJoins(t *testing.T) {
	p := newPlatform(t)
	svc := &edgeos.Service{
		Name: "kidnapper-search", Priority: edgeos.PriorityInteractive,
		DAG: tasks.ALPR(), Image: []byte("a3-v1"),
	}
	if err := p.InstallService(svc); err != nil {
		t.Fatal(err)
	}
	if _, err := p.InvokeService("kidnapper-search"); err != nil {
		t.Fatal(err)
	}
	phone, err := hardware.Lookup(hardware.DevicePhone)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MHEP().AddDevice(phone, vcu.SecondLevel, vcu.WiFiIO()); err != nil {
		t.Fatal(err)
	}
	if len(p.MHEP().Devices()) != 5 {
		t.Fatal("phone not registered")
	}
	if _, err := p.InvokeService("kidnapper-search"); err != nil {
		t.Fatalf("invoke with phone attached: %v", err)
	}
}

// TestScenarioHangUpRecovery: a service with a deadline only the edge can
// meet hangs up when a backlog on every VCU device leaves no pipeline that
// fits, then resumes once the backlog drains.
func TestScenarioHangUpRecovery(t *testing.T) {
	p := newPlatform(t)
	svc := &edgeos.Service{
		Name:     "pedestrian-alert",
		Priority: edgeos.PrioritySafety,
		// Tight but achievable with the full platform.
		Deadline: 80 * time.Millisecond,
		DAG:      tasks.PedestrianAlert(),
		Image:    []byte("ped-v1"),
		// Safety service: remote execution is not allowed (the paper's
		// point about safety-critical work staying local).
		Pipelines: []edgeos.Pipeline{{Name: "onboard", SplitAfter: 2}},
	}
	if err := p.InstallService(svc); err != nil {
		t.Fatal(err)
	}
	res, err := p.InvokeService("pedestrian-alert")
	if err != nil {
		t.Fatal(err)
	}
	if res.HungUp {
		t.Fatalf("healthy platform hung up the safety service")
	}
	// A burst of detector work queues up on every VCU device.
	now := p.Engine().Now()
	for i := 0; i < 200; i++ {
		if _, err := p.dsf.Run(tasks.PedestrianAlert(), now); err != nil {
			t.Fatal(err)
		}
	}
	res, err = p.InvokeService("pedestrian-alert")
	if err != nil {
		t.Fatal(err)
	}
	if !res.HungUp {
		t.Fatalf("service met an 80 ms deadline behind the backlog (latency %v)", res.Latency)
	}
	sAfter, _ := p.Elastic().Service("pedestrian-alert")
	if sAfter.State() != edgeos.HungUp {
		t.Fatalf("state = %v, want hung-up", sAfter.State())
	}
	// The backlog drains; the service resumes automatically.
	if err := p.AdvanceTo(now + time.Minute); err != nil {
		t.Fatal(err)
	}
	res, err = p.InvokeService("pedestrian-alert")
	if err != nil {
		t.Fatal(err)
	}
	if res.HungUp {
		t.Fatal("service did not resume after the backlog drained")
	}
	if sAfter.State() != edgeos.Running {
		t.Fatalf("state = %v after recovery", sAfter.State())
	}
}
