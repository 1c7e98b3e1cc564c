package edgeos

import (
	"testing"

	"repro/internal/tasks"
)

func newSecured(t *testing.T) (*SecurityModule, *ContainerRuntime, *ElasticManager) {
	t.Helper()
	mgr := newManager(t, 0, MinLatency)
	rt := NewContainerRuntime()
	sm, err := NewSecurityModule(rt, mgr)
	if err != nil {
		t.Fatal(err)
	}
	return sm, rt, mgr
}

func teeService() *Service {
	return &Service{
		Name:     "pedestrian-alert",
		Priority: PrioritySafety,
		DAG:      tasks.PedestrianAlert(),
		TEE:      true,
		Image:    []byte("pedestrian-alert-binary-v1"),
	}
}

func TestNewSecurityModuleValidation(t *testing.T) {
	mgr := newManager(t, 0, MinLatency)
	if _, err := NewSecurityModule(nil, mgr); err == nil {
		t.Fatal("nil runtime accepted")
	}
	if _, err := NewSecurityModule(NewContainerRuntime(), nil); err == nil {
		t.Fatal("nil manager accepted")
	}
}

func TestInstallLaunchesAndRegisters(t *testing.T) {
	sm, rt, mgr := newSecured(t)
	if err := sm.Install(teeService(), 200, 1024); err != nil {
		t.Fatal(err)
	}
	c, err := rt.Get("pedestrian-alert")
	if err != nil {
		t.Fatal(err)
	}
	if c.Isolation != TEEIsolation {
		t.Fatalf("isolation = %v, want TEE", c.Isolation)
	}
	if _, err := mgr.Service("pedestrian-alert"); err != nil {
		t.Fatal("service not registered with elastic manager")
	}
	if err := sm.Attest("pedestrian-alert"); err != nil {
		t.Fatalf("fresh install fails attestation: %v", err)
	}
}

func TestInstallValidation(t *testing.T) {
	sm, _, _ := newSecured(t)
	if err := sm.Install(nil, 100, 256); err == nil {
		t.Fatal("nil service accepted")
	}
	noImage := teeService()
	noImage.Image = nil
	if err := sm.Install(noImage, 100, 256); err == nil {
		t.Fatal("image-less service accepted")
	}
}

func TestInstallRollsBackOnDuplicateRegistration(t *testing.T) {
	sm, rt, mgr := newSecured(t)
	if err := mgr.Register(teeService()); err != nil { // occupy the name
		t.Fatal(err)
	}
	if err := sm.Install(teeService(), 100, 256); err == nil {
		t.Fatal("duplicate install succeeded")
	}
	if _, err := rt.Get("pedestrian-alert"); err == nil {
		t.Fatal("container left behind after failed install")
	}
}

func TestAttestUnknownService(t *testing.T) {
	sm, _, _ := newSecured(t)
	if err := sm.Attest("ghost"); err == nil {
		t.Fatal("attested unknown service")
	}
}
