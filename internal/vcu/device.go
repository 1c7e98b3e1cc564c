// Package vcu implements OpenVDAP's Heterogeneous Vehicle Computing Unit
// (paper §IV-B): the multi-level heterogeneous computing platform (mHEP)
// that manages on-board and opportunistic processors, and the Dynamic
// Scheduling Framework (DSF) that places applications' task DAGs on the
// best-fit devices.
package vcu

import (
	"encoding/json"
	"fmt"
	"slices"
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

	// rates[c] is the processor's EffectiveGFLOPS(c) for every class from
	// 0 to the hardware enum's largest, read once in NewDevice: processors
	// do not change once managed, and the planner asks for a rate per task
	// per device.
	rates []float64
	// throughput is the processor's Throughput table as JSON, encoded once
	// in NewDevice for the same reason: every Profile carries it.
	throughput json.RawMessage
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
	d := &Device{exec: exec, tier: tier, io: io}
	d.rates = make([]float64, slices.Max(hardware.Classes())+1)
	for c := range d.rates {
		d.rates[c] = p.EffectiveGFLOPS(hardware.Class(c))
	}
	tp := make(map[string]float64, len(p.Throughput))
	for c, v := range p.Throughput {
		tp[c.String()] = v
	}
	if d.throughput, err = json.Marshal(tp); err != nil {
		return nil, fmt.Errorf("vcu: device %s throughput: %w", p.Name, err)
	}
	return d, nil
}

// rate is the processor's EffectiveGFLOPS(c), from the device's table when
// c is in the hardware enum.
func (d *Device) rate(c hardware.Class) float64 {
	if c >= 0 && int(c) < len(d.rates) {
		return d.rates[c]
	}
	return d.Processor().EffectiveGFLOPS(c)
}

// execTime is the processor's ExecTime(c, gflop) computed from the rate
// table with the same arithmetic; the processor itself reports the
// refusals, so their errors are its own.
func (d *Device) execTime(c hardware.Class, gflop float64) (time.Duration, error) {
	rate := d.rate(c)
	if gflop < 0 || rate <= 0 {
		return d.Processor().ExecTime(c, gflop)
	}
	return time.Duration(gflop / rate * float64(time.Second)), nil
}

// Name returns the device name.
func (d *Device) Name() string { return d.exec.Processor().Name }

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
	Name          string        `json:"name"`
	Tier          string        `json:"tier"`
	Kind          string        `json:"kind"`
	Slots         int           `json:"slots"`
	EarliestStart time.Duration `json:"earliestStart"`
	Utilization   float64       `json:"utilization"`
	// Throughput is the effective GFLOP/s per task class, a JSON object
	// keyed by class name.
	Throughput json.RawMessage `json:"throughputGflops"`
	MaxPowerW  float64         `json:"maxPowerW"`
}

// Profile snapshots the device at virtual time now over the given horizon.
// The throughput table is the device's own encoding, shared by every
// profile: callers must not modify it.
func (d *Device) Profile(now, horizon time.Duration) ResourceProfile {
	p := d.exec.Processor()
	return ResourceProfile{
		Name:          p.Name,
		Tier:          d.tier.String(),
		Kind:          p.Kind.String(),
		Slots:         p.Slots,
		EarliestStart: d.exec.EarliestStart(now),
		Utilization:   d.exec.Utilization(horizon),
		Throughput:    d.throughput,
		MaxPowerW:     p.MaxPowerW,
	}
}
