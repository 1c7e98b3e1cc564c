package network

import (
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Meter records link-layer activity into a telemetry registry under
// `network.*` metric names. A nil *Meter is inert, so callers on the
// offload path can carry one unconditionally. The fixed-name metrics are
// resolved to interned handles at construction and the per-path counters
// are families, so steady-state transfer accounting never touches the
// registry lock or rebuilds metric names.
type Meter struct {
	transfers  *telemetry.Counter
	bytesUp    *telemetry.Counter
	bytesDown  *telemetry.Counter
	transferMS *telemetry.HistogramHandle
	loss       *telemetry.HistogramHandle
	// network.path.<name>.transfers and network.path.<name>.bytes.
	pathTransfers, pathBytes telemetry.Family
}

// NewMeter meters into the scope's registry (a scope without one yields an
// inert meter).
func NewMeter(sc obs.Scope) *Meter {
	reg := sc.Metrics
	if reg == nil {
		return nil
	}
	return &Meter{
		transfers:     reg.CounterHandle("network.transfers"),
		bytesUp:       reg.CounterHandle("network.bytes_up"),
		bytesDown:     reg.CounterHandle("network.bytes_down"),
		transferMS:    reg.HistogramHandle("network.transfer_ms"),
		loss:          reg.HistogramHandle("network.loss"),
		pathTransfers: reg.Family("network.path.", ".transfers"),
		pathBytes:     reg.Family("network.path.", ".bytes"),
	}
}

// RecordTransfer accounts one reliable transfer over a path: totals, a
// latency histogram, per-path counters, and the worst per-hop loss seen.
func (m *Meter) RecordTransfer(p Path, sizeBytes float64, d Direction, dur time.Duration) {
	if m == nil {
		return
	}
	m.transfers.Inc()
	if d == Downlink {
		m.bytesDown.Add(sizeBytes)
	} else {
		m.bytesUp.Add(sizeBytes)
	}
	m.transferMS.ObserveDuration(dur)
	if p.Name != "" {
		m.pathTransfers.Get(p.Name).Inc()
		m.pathBytes.Get(p.Name).Add(sizeBytes)
	}
	m.loss.Observe(WorstLoss(p))
}

// WorstLoss returns the highest per-hop loss probability along the path —
// the figure the mobility-degradation model raises with speed.
func WorstLoss(p Path) float64 {
	var worst float64
	for _, l := range p.Links {
		if l.BaseLoss > worst {
			worst = l.BaseLoss
		}
	}
	return worst
}
