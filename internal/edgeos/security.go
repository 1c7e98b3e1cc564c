package edgeos

import (
	"fmt"

	"repro/internal/vdapcrypto"
)

// SecurityModule installs services into their sandboxes (a TEE when the
// service asks for one) and attests their images against the measurement
// recorded at install time (paper §IV-C).
type SecurityModule struct {
	runtime  *ContainerRuntime
	manager  *ElasticManager
	expected map[string]string // service -> expected measurement
}

// NewSecurityModule builds the module over the container runtime and the
// elastic manager (which owns service registrations).
func NewSecurityModule(runtime *ContainerRuntime, manager *ElasticManager) (*SecurityModule, error) {
	if runtime == nil || manager == nil {
		return nil, fmt.Errorf("edgeos: security module needs runtime and manager")
	}
	return &SecurityModule{
		runtime:  runtime,
		manager:  manager,
		expected: make(map[string]string),
	}, nil
}

// Install registers a service with EdgeOSv: validates it, records its
// attestation measurement, launches its sandbox (TEE when requested), and
// registers it with Elastic Management.
func (sm *SecurityModule) Install(s *Service, cpuShares int, memoryLimitMB float64) error {
	if s == nil {
		return fmt.Errorf("edgeos: nil service")
	}
	if len(s.Image) == 0 {
		return fmt.Errorf("edgeos: service %s has no image to measure", s.Name)
	}
	if err := s.Validate(); err != nil {
		return err
	}
	measurement := vdapcrypto.Fingerprint(s.Image)
	isolation := ContainerIsolation
	if s.TEE {
		isolation = TEEIsolation
	}
	if _, err := sm.runtime.Launch(s.Name, isolation, cpuShares, memoryLimitMB, measurement); err != nil {
		return err
	}
	if err := sm.manager.Register(s); err != nil {
		rerr := sm.runtime.Remove(s.Name)
		_ = rerr // best-effort rollback; the Register error is primary
		return err
	}
	sm.expected[s.Name] = measurement
	return nil
}

// Attest verifies a service's installed image measurement against the
// expected value recorded at install time.
func (sm *SecurityModule) Attest(service string) error {
	want, ok := sm.expected[service]
	if !ok {
		return fmt.Errorf("edgeos: service %q was never installed", service)
	}
	c, err := sm.runtime.Get(service)
	if err != nil {
		return err
	}
	if c.Measurement != want {
		return fmt.Errorf("edgeos: service %s attestation mismatch: have %s want %s",
			service, c.Measurement, want)
	}
	return nil
}
