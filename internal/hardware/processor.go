// Package hardware models the heterogeneous processors, storage, and power
// envelopes that make up OpenVDAP's Vehicle Computing Unit (VCU) as well as
// XEdge and cloud servers.
//
// Each processor has a per-task-class effective throughput in GFLOP/s. The
// catalog in this package is calibrated against the paper's two hardware
// measurements: Table I (algorithm latency on a 2.4 GHz AWS vCPU) and
// Figure 3 (Inception-v3 latency and max power on five processors).
package hardware

import (
	"fmt"
	"time"
)

// Class categorizes computation so heterogeneous processors can have
// different efficiencies on different work (a GPU accelerates DNN inference
// far more than branchy classic vision code).
type Class int

const (
	// General is branchy scalar code: parsing, control, bookkeeping.
	General Class = iota + 1
	// Vision is classic computer vision (Haar cascades, Hough transforms).
	Vision
	// DNNInference is neural-network forward passes.
	DNNInference
	// DNNTraining is neural-network training (forward + backward).
	DNNTraining
	// Codec is media encoding/decoding.
	Codec
	// Crypto is encryption/hashing work.
	Crypto
)

var classNames = map[Class]string{
	General:      "general",
	Vision:       "vision",
	DNNInference: "dnn-inference",
	DNNTraining:  "dnn-training",
	Codec:        "codec",
	Crypto:       "crypto",
}

// String returns the lower-case class name.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Classes returns every defined task class in declaration order. Callers
// that precompute per-class tables (xedge service rates) iterate this so
// their caches cover the whole enum up front.
func Classes() []Class {
	return []Class{General, Vision, DNNInference, DNNTraining, Codec, Crypto}
}

// Kind is the processor technology.
type Kind int

const (
	// CPU is a general-purpose processor.
	CPU Kind = iota + 1
	// GPU is a graphics processor with massive floating-point parallelism.
	GPU
	// DSP is a low-power signal processor (e.g. Movidius neural stick).
	DSP
	// FPGA is a reconfigurable fabric.
	FPGA
	// ASIC is a fixed-function accelerator.
	ASIC
)

var kindNames = map[Kind]string{CPU: "cpu", GPU: "gpu", DSP: "dsp", FPGA: "fpga", ASIC: "asic"}

// String returns the lower-case kind name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Processor describes one compute device.
type Processor struct {
	// Name identifies the device ("tesla-v100").
	Name string
	// Kind is the processor technology.
	Kind Kind
	// Throughput is the effective GFLOP/s per task class. Classes absent
	// from the map fall back to the General entry.
	Throughput map[Class]float64
	// IdlePowerW and MaxPowerW bound the power envelope in watts.
	IdlePowerW float64
	MaxPowerW  float64
	// MemoryMB is device memory available to tasks.
	MemoryMB float64
	// Slots is how many tasks can execute concurrently at full throughput
	// (distinct execution contexts, not SMT). Minimum 1.
	Slots int
}

// Validate reports configuration errors.
func (p *Processor) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("hardware: processor has no name")
	}
	if len(p.Throughput) == 0 {
		return fmt.Errorf("hardware: processor %s has no throughput entries", p.Name)
	}
	for c, v := range p.Throughput {
		if v <= 0 {
			return fmt.Errorf("hardware: processor %s has non-positive throughput for %v", p.Name, c)
		}
	}
	if p.MaxPowerW < p.IdlePowerW {
		return fmt.Errorf("hardware: processor %s max power %v below idle %v", p.Name, p.MaxPowerW, p.IdlePowerW)
	}
	if p.Slots < 1 {
		return fmt.Errorf("hardware: processor %s has %d slots, need >= 1", p.Name, p.Slots)
	}
	return nil
}

// EffectiveGFLOPS returns the device throughput for a task class, falling
// back to the General rate for unknown classes. A device that cannot run
// the class at all (no entry and no General entry) returns 0.
func (p *Processor) EffectiveGFLOPS(c Class) float64 {
	if v, ok := p.Throughput[c]; ok {
		return v
	}
	return p.Throughput[General]
}

// CanRun reports whether the device supports the task class.
func (p *Processor) CanRun(c Class) bool { return p.EffectiveGFLOPS(c) > 0 }

// ExecTime returns how long gflop units of class-c work take on this device.
// It returns (0, error) if the device cannot run the class.
func (p *Processor) ExecTime(c Class, gflop float64) (time.Duration, error) {
	if gflop < 0 {
		return 0, fmt.Errorf("hardware: negative work %v", gflop)
	}
	rate := p.EffectiveGFLOPS(c)
	if rate <= 0 {
		return 0, fmt.Errorf("hardware: %s cannot run %v tasks", p.Name, c)
	}
	return time.Duration(gflop / rate * float64(time.Second)), nil
}

// EnergyJ returns the energy in joules consumed by running flat-out for d.
func (p *Processor) EnergyJ(d time.Duration) float64 {
	return p.MaxPowerW * d.Seconds()
}
