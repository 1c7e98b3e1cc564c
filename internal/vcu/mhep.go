package vcu

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/hardware"
)

// MHEP is the multi-level heterogeneous computing platform: the registry
// of devices DSF schedules onto. 1stHEP devices are installed at build
// time; 2ndHEP devices (phones, the legacy controller) are added with
// AddDevice.
type MHEP struct {
	devices map[string]*Device
	// ordered holds the same devices sorted by name (stable iteration keeps
	// scheduling deterministic); AddDevice keeps it sorted, so planning
	// reads it without rebuilding it.
	ordered []*Device
}

// NewMHEP returns an empty platform.
func NewMHEP() *MHEP {
	return &MHEP{devices: make(map[string]*Device)}
}

// DefaultVCU builds the paper's reference on-board configuration: an i7
// CPU, a TX2-class GPU, the FPGA fabric, and the DNN ASIC on the PCIe
// interconnect as 1stHEP.
func DefaultVCU() (*MHEP, error) {
	m := NewMHEP()
	for _, name := range []string{
		hardware.DeviceI76700,
		hardware.DeviceTX2MaxP,
		hardware.DeviceVCUFPGA,
		hardware.DeviceVCUASIC,
	} {
		p, err := hardware.Lookup(name)
		if err != nil {
			return nil, err
		}
		if err := m.AddDevice(p, FirstLevel, PCIeIO()); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// AddDevice registers a processor. Names must be unique.
func (m *MHEP) AddDevice(p *hardware.Processor, tier Tier, io IO) error {
	if p == nil {
		return fmt.Errorf("vcu: nil processor")
	}
	if _, exists := m.devices[p.Name]; exists {
		return fmt.Errorf("vcu: device %q already registered", p.Name)
	}
	d, err := NewDevice(p, tier, io)
	if err != nil {
		return err
	}
	m.devices[p.Name] = d
	at, _ := slices.BinarySearchFunc(m.ordered, p.Name, func(d *Device, name string) int {
		return strings.Compare(d.Name(), name)
	})
	m.ordered = slices.Insert(m.ordered, at, d)
	return nil
}

// Device returns the named device.
func (m *MHEP) Device(name string) (*Device, error) {
	d, ok := m.devices[name]
	if !ok {
		return nil, fmt.Errorf("vcu: unknown device %q", name)
	}
	return d, nil
}

// Devices returns all registered devices sorted by name, in a slice the
// caller owns.
func (m *MHEP) Devices() []*Device {
	out := make([]*Device, len(m.ordered))
	copy(out, m.ordered)
	return out
}

// Profiles snapshots every device (DSF's periodic resource collection).
func (m *MHEP) Profiles(now, horizon time.Duration) []ResourceProfile {
	out := make([]ResourceProfile, 0, len(m.ordered))
	for _, d := range m.ordered {
		out = append(out, d.Profile(now, horizon))
	}
	return out
}
