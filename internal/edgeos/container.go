package edgeos

import "fmt"

// IsolationKind is how a service is sandboxed.
type IsolationKind int

const (
	// ContainerIsolation is lightweight containerization — the default
	// for ordinary services (paper: "a good candidate for isolation and
	// migration due to the light weight of a container").
	ContainerIsolation IsolationKind = iota + 1
	// TEEIsolation runs the service inside a trusted execution
	// environment with sealed memory — for key/safety-critical services.
	TEEIsolation
)

// String returns the isolation name.
func (k IsolationKind) String() string {
	switch k {
	case ContainerIsolation:
		return "container"
	case TEEIsolation:
		return "tee"
	default:
		return fmt.Sprintf("isolation(%d)", int(k))
	}
}

// Container is one service sandbox and the limits it was launched with.
type Container struct {
	Service   string
	Isolation IsolationKind
	// CPUShares is the relative CPU weight (like cgroup cpu.shares).
	CPUShares int
	// MemoryLimitMB is the sandbox's memory cap.
	MemoryLimitMB float64
	// Measurement is the attestation fingerprint of the installed image.
	Measurement string
}

// ContainerRuntime manages all sandboxes on the vehicle.
type ContainerRuntime struct {
	containers map[string]*Container
}

// NewContainerRuntime returns an empty runtime.
func NewContainerRuntime() *ContainerRuntime {
	return &ContainerRuntime{containers: make(map[string]*Container)}
}

// Launch creates and starts a sandbox for a service.
func (r *ContainerRuntime) Launch(service string, isolation IsolationKind, cpuShares int, memoryLimitMB float64, measurement string) (*Container, error) {
	if service == "" {
		return nil, fmt.Errorf("edgeos: container needs a service name")
	}
	if cpuShares <= 0 {
		return nil, fmt.Errorf("edgeos: container %s needs positive CPU shares", service)
	}
	if memoryLimitMB <= 0 {
		return nil, fmt.Errorf("edgeos: container %s needs a positive memory limit", service)
	}
	if _, dup := r.containers[service]; dup {
		return nil, fmt.Errorf("edgeos: container for %q already exists", service)
	}
	c := &Container{
		Service:       service,
		Isolation:     isolation,
		CPUShares:     cpuShares,
		MemoryLimitMB: memoryLimitMB,
		Measurement:   measurement,
	}
	r.containers[service] = c
	return c, nil
}

// Get returns a service's container.
func (r *ContainerRuntime) Get(service string) (*Container, error) {
	c, ok := r.containers[service]
	if !ok {
		return nil, fmt.Errorf("edgeos: no container for %q", service)
	}
	return c, nil
}

// Remove destroys a sandbox.
func (r *ContainerRuntime) Remove(service string) error {
	if _, ok := r.containers[service]; !ok {
		return fmt.Errorf("edgeos: no container for %q", service)
	}
	delete(r.containers, service)
	return nil
}
