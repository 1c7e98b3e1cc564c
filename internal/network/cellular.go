package network

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// Figure-2 loss-model calibration constants. The model composes three
// mechanisms, each of which the paper identifies in §III-A:
//
//  1. Congestion loss: a stream whose bitrate presses against the shared
//     uplink loses a small baseline of packets even at rest, superlinear in
//     the bitrate (p0 · (B/Bref)^congestionExp).
//  2. Fade loss: Doppler / multipath at speed; grows quadratically with
//     speed and superlinearly with bitrate.
//  3. Handoff outage: the fraction of time the modem is detached while
//     crossing cell boundaries. Dwell time shrinks linearly with speed
//     while reattachment at speed suffers radio-link failures, so the
//     detached fraction rises sharply — modeled as a logistic in speed.
//
// With the paper's two operating points (35 MPH, 70 MPH; 3.8 and 5.8 Mbps
// streams) these constants reproduce Figure 2's packet-loss rates within a
// few points; see EXPERIMENTS.md for the side-by-side.
const (
	congestionP0   = 0.002   // loss of a 3.8 Mbps stream at rest
	congestionBref = 3.8     // Mbps reference bitrate
	congestionExp  = 2.6     // superlinearity in bitrate
	fadeP0         = 0.013   // fade loss at 35 MPH for the reference stream
	fadeVrefMS     = 15.6464 // 35 MPH in m/s
	fadeSpeedExp   = 2.0     // quadratic in speed
	fadeBitrateExp = 3.6     // superlinearity in bitrate
	outageMax      = 0.62    // saturating detached fraction
	outageMidMS    = 28.0    // speed at half-saturation (m/s)
	outageScaleMS  = 2.5     // logistic steepness (m/s)
)

// CongestionLoss returns the at-rest loss probability for a stream of the
// given bitrate (Mbps).
func CongestionLoss(bitrateMbps float64) float64 {
	if bitrateMbps <= 0 {
		return 0
	}
	return clampProb(congestionP0 * math.Pow(bitrateMbps/congestionBref, congestionExp))
}

// FadeLoss returns the speed-dependent fading loss probability for a stream
// of the given bitrate (Mbps) at the given speed (m/s).
func FadeLoss(speedMS, bitrateMbps float64) float64 {
	if speedMS <= 0 || bitrateMbps <= 0 {
		return 0
	}
	p := fadeP0 * math.Pow(speedMS/fadeVrefMS, fadeSpeedExp) * math.Pow(bitrateMbps/congestionBref, fadeBitrateExp)
	return clampProb(p)
}

// OutageFraction returns the expected fraction of drive time the modem is
// detached (handoff / radio-link-failure state) at the given speed (m/s).
func OutageFraction(speedMS float64) float64 {
	if speedMS <= 0 {
		return 0
	}
	return clampProb(outageMax / (1 + math.Exp(-(speedMS-outageMidMS)/outageScaleMS)))
}

// ExpectedPacketLoss composes the three mechanisms into a single per-packet
// loss probability — the closed-form counterpart of the event-driven
// channel below, used by the offloading estimator.
func ExpectedPacketLoss(speedMS, bitrateMbps float64) float64 {
	pc := CongestionLoss(bitrateMbps)
	pf := FadeLoss(speedMS, bitrateMbps)
	po := OutageFraction(speedMS)
	return clampProb(1 - (1-pc)*(1-pf)*(1-po))
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 0.995 {
		return 0.995
	}
	return p
}

// CellularChannel is an event-driven LTE/5G uplink bound to a moving
// vehicle. It realizes the loss model mechanistically: handoff events
// derived from the vehicle's mobility open outage windows during which all
// packets are lost; outside outages, packets suffer independent
// congestion + fade loss.
type CellularChannel struct {
	spec LinkSpec
	mob  geo.Mobility
	rng  *sim.RNG

	bitrateMbps float64

	// Outage window state, generated lazily as virtual time advances.
	nextHandoffAt time.Duration
	outageUntil   time.Duration
	dwell         time.Duration
}

// NewCellularChannel builds a channel for a stream of the given bitrate
// over the given link, carried by a vehicle with the given mobility.
func NewCellularChannel(spec LinkSpec, mob geo.Mobility, bitrateMbps float64, rng *sim.RNG) (*CellularChannel, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if bitrateMbps <= 0 {
		return nil, fmt.Errorf("network: stream bitrate must be positive, got %v", bitrateMbps)
	}
	if rng == nil {
		return nil, fmt.Errorf("network: nil RNG")
	}
	c := &CellularChannel{spec: spec, mob: mob, rng: rng, bitrateMbps: bitrateMbps}
	c.dwell = c.dwellTime()
	if c.dwell > 0 && mob.SpeedMS > 0 {
		// First boundary crossing is uniformly placed within one dwell.
		c.nextHandoffAt = time.Duration(rng.Uniform(0, float64(c.dwell)))
	} else {
		c.nextHandoffAt = time.Duration(math.MaxInt64 / 2)
	}
	return c, nil
}

// dwellTime derives per-cell dwell from the road's base-station layout, or
// from the link's nominal range when no road is attached.
func (c *CellularChannel) dwellTime() time.Duration {
	if c.mob.SpeedMS <= 0 {
		return 0
	}
	spacing := 2 * c.spec.RangeM // fallback: diameter of nominal coverage
	if c.mob.Road != nil {
		if n := len(c.mob.Road.StationsOfKind(geo.BaseStation)); n > 0 {
			spacing = c.mob.Road.Length / float64(n)
		}
	}
	if spacing <= 0 {
		return 0
	}
	return time.Duration(spacing / c.mob.SpeedMS * float64(time.Second))
}

// advanceTo rolls the outage-window schedule forward to virtual time t.
func (c *CellularChannel) advanceTo(t time.Duration) {
	// A non-positive dwell means the vehicle never crosses a cell boundary
	// (parked, or a degenerate station layout): there is no schedule to
	// advance, and stepping the loop by zero would spin forever once t
	// reaches the far-future sentinel.
	if c.dwell <= 0 {
		return
	}
	for c.nextHandoffAt <= t {
		// Outage duration: the logistic detached-fraction of one dwell,
		// jittered ±25% so GOP boundaries don't phase-lock to outages.
		frac := OutageFraction(c.mob.SpeedMS)
		mean := frac * float64(c.dwell)
		dur := time.Duration(c.rng.Uniform(0.75*mean, 1.25*mean))
		c.outageUntil = c.nextHandoffAt + dur
		c.nextHandoffAt += c.dwell
	}
}

// InOutage reports whether the modem is detached at virtual time t.
// Time must not move backwards across calls.
func (c *CellularChannel) InOutage(t time.Duration) bool {
	c.advanceTo(t)
	return t < c.outageUntil
}

// SendPacket attempts to deliver one packet at virtual time t and returns
// whether it arrived. Calls must have non-decreasing t.
func (c *CellularChannel) SendPacket(t time.Duration) bool {
	if c.InOutage(t) {
		return false
	}
	pc := CongestionLoss(c.bitrateMbps)
	pf := FadeLoss(c.mob.SpeedMS, c.bitrateMbps)
	pInd := clampProb(1 - (1-pc)*(1-pf))
	return !c.rng.Bernoulli(pInd)
}
