// Package vcu implements OpenVDAP's Heterogeneous Vehicle Computing Unit
// (paper §IV-B): the multi-level heterogeneous computing platform (mHEP)
// that manages on-board and opportunistic processors, and the Dynamic
// Scheduling Framework (DSF) that places applications' task DAGs on the
// best-fit devices.
package vcu

import (
	"fmt"
	"time"

	"repro/internal/hardware"
)

// Tier distinguishes the two mHEP levels.
type Tier int

const (
	// FirstLevel (1stHEP) is the permanently installed VCU hardware.
	FirstLevel Tier = iota + 1
	// SecondLevel (2ndHEP) is opportunistic hardware: passenger phones,
	// the legacy on-board controller.
	SecondLevel
)

// String returns the paper's tier name.
func (t Tier) String() string {
	switch t {
	case FirstLevel:
		return "1stHEP"
	case SecondLevel:
		return "2ndHEP"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// IO describes how data reaches a device: on-board parts ride the PCIe
// fabric; 2ndHEP devices are behind a wireless hop.
type IO struct {
	// MBps is the transfer bandwidth to/from the device.
	MBps float64
	// Latency is the fixed per-transfer setup cost.
	Latency time.Duration
}

// PCIeIO is the on-board interconnect (PCIe-class).
func PCIeIO() IO { return IO{MBps: 8000, Latency: 10 * time.Microsecond} }

// WiFiIO is the passenger-device hop.
func WiFiIO() IO { return IO{MBps: 15, Latency: 3 * time.Millisecond} }

// Device is one managed processor inside the mHEP.
type Device struct {
	exec *hardware.Executor
	tier Tier
	io   IO
}

// NewDevice wraps a processor for mHEP management.
func NewDevice(p *hardware.Processor, tier Tier, io IO) (*Device, error) {
	exec, err := hardware.NewExecutor(p)
	if err != nil {
		return nil, err
	}
	if io.MBps <= 0 {
		return nil, fmt.Errorf("vcu: device %s needs positive IO bandwidth", p.Name)
	}
	return &Device{exec: exec, tier: tier, io: io}, nil
}

// Name returns the device name.
func (d *Device) Name() string { return d.exec.Processor().Name }

// Tier returns the mHEP level.
func (d *Device) Tier() Tier { return d.tier }

// Processor exposes the underlying hardware description.
func (d *Device) Processor() *hardware.Processor { return d.exec.Processor() }

// Executor exposes the queueing model (used by DSF commit).
func (d *Device) Executor() *hardware.Executor { return d.exec }

// TransferTime returns the cost of moving sizeBytes between two devices.
// Same-device transfers are free; cross-device transfers pay both sides'
// latency and the slower side's bandwidth.
func TransferTime(from, to *Device, sizeBytes float64) time.Duration {
	if from == nil || to == nil || from == to || sizeBytes <= 0 {
		return 0
	}
	mbps := from.io.MBps
	if to.io.MBps < mbps {
		mbps = to.io.MBps
	}
	return from.io.Latency + to.io.Latency +
		time.Duration(sizeBytes/(mbps*1e6)*float64(time.Second))
}

// ResourceProfile is the periodic status snapshot DSF keeps per device
// (paper §IV-B2 "computing resources collection").
type ResourceProfile struct {
	Name          string             `json:"name"`
	Tier          string             `json:"tier"`
	Kind          string             `json:"kind"`
	Slots         int                `json:"slots"`
	EarliestStart time.Duration      `json:"earliestStart"`
	Utilization   float64            `json:"utilization"`
	Throughput    map[string]float64 `json:"throughputGflops"`
	MaxPowerW     float64            `json:"maxPowerW"`
}

// Profile snapshots the device at virtual time now over the given horizon.
func (d *Device) Profile(now, horizon time.Duration) ResourceProfile {
	p := d.exec.Processor()
	tp := make(map[string]float64, len(p.Throughput))
	for c, v := range p.Throughput {
		tp[c.String()] = v
	}
	return ResourceProfile{
		Name:          p.Name,
		Tier:          d.tier.String(),
		Kind:          p.Kind.String(),
		Slots:         p.Slots,
		EarliestStart: d.exec.EarliestStart(now),
		Utilization:   d.exec.Utilization(horizon),
		Throughput:    tp,
		MaxPowerW:     p.MaxPowerW,
	}
}
