package hardware

import (
	"fmt"
	"time"
)

// Storage models the read side of the VCU's parallelism-supported SSD
// (paper §IV-B): a device with fixed per-operation latency plus
// throughput-bound transfer time.
type Storage struct {
	// Name identifies the device.
	Name string
	// ReadMBps is the sustained sequential read rate.
	ReadMBps float64
	// OpLatency is the fixed per-operation cost (queueing/flash latency).
	OpLatency time.Duration
}

// DefaultSSD returns the VCU SSD model: NVMe-class rates.
func DefaultSSD() *Storage {
	return &Storage{
		Name:      "vcu-nvme-ssd",
		ReadMBps:  3200,
		OpLatency: 80 * time.Microsecond,
	}
}

// ReadTime returns how long reading sizeMB takes.
func (s *Storage) ReadTime(sizeMB float64) (time.Duration, error) {
	if sizeMB < 0 {
		return 0, fmt.Errorf("hardware: negative read size %v", sizeMB)
	}
	if s.ReadMBps <= 0 {
		return 0, fmt.Errorf("hardware: storage %s has no read rate", s.Name)
	}
	return s.OpLatency + time.Duration(sizeMB/s.ReadMBps*float64(time.Second)), nil
}
