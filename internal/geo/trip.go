package geo

import (
	"fmt"
	"time"
)

// Leg is one constant-speed stretch of a trip.
type Leg struct {
	// SpeedMS is the cruise speed (0 = stopped at a light / parked).
	SpeedMS float64
	// Duration is how long the leg lasts.
	Duration time.Duration
}

// Trip is a piecewise-constant speed profile along a road — the drive
// pattern real scenarios need (urban stop-and-go, highway cruise) instead
// of a single fixed speed. Past the last leg the vehicle continues at the
// final leg's speed.
type Trip struct {
	Road   *Road
	StartX float64
	LaneY  float64
	Legs   []Leg
}

// Validate reports configuration errors.
func (t *Trip) Validate() error {
	if t.Road == nil {
		return fmt.Errorf("geo: trip has no road")
	}
	if len(t.Legs) == 0 {
		return fmt.Errorf("geo: trip has no legs")
	}
	for i, leg := range t.Legs {
		if leg.SpeedMS < 0 {
			return fmt.Errorf("geo: leg %d has negative speed", i)
		}
		if leg.Duration <= 0 {
			return fmt.Errorf("geo: leg %d has non-positive duration", i)
		}
	}
	return nil
}

// legAt returns the active leg and the time already spent in it.
func (t *Trip) legAt(at time.Duration) (Leg, time.Duration) {
	var elapsed time.Duration
	for _, leg := range t.Legs {
		if at < elapsed+leg.Duration {
			return leg, at - elapsed
		}
		elapsed += leg.Duration
	}
	last := t.Legs[len(t.Legs)-1]
	return last, last.Duration // fully consumed; caller adds overshoot
}

// SpeedAt returns the vehicle speed at trip time `at`.
func (t *Trip) SpeedAt(at time.Duration) float64 {
	if at < 0 {
		at = 0
	}
	leg, _ := t.legAt(at)
	return leg.SpeedMS
}

// DistanceAt returns meters traveled by trip time `at`.
func (t *Trip) DistanceAt(at time.Duration) float64 {
	if at < 0 {
		return 0
	}
	var dist float64
	var elapsed time.Duration
	for _, leg := range t.Legs {
		if at <= elapsed {
			break
		}
		span := leg.Duration
		if at-elapsed < span {
			span = at - elapsed
		}
		dist += leg.SpeedMS * span.Seconds()
		elapsed += leg.Duration
	}
	if at > elapsed {
		// Past the plan: continue at the final speed.
		dist += t.Legs[len(t.Legs)-1].SpeedMS * (at - elapsed).Seconds()
	}
	return dist
}

// PositionAt returns the vehicle position at trip time `at`, wrapping at
// the road end like Mobility.
func (t *Trip) PositionAt(at time.Duration) Point {
	if t.Road == nil || t.Road.Length <= 0 {
		return Point{X: t.StartX, Y: t.LaneY}
	}
	x := t.StartX + t.DistanceAt(at)
	wrapped := x - float64(int(x/t.Road.Length))*t.Road.Length
	if wrapped < 0 {
		wrapped += t.Road.Length
	}
	return Point{X: wrapped, Y: t.LaneY}
}

// MobilityAt returns the constant-speed Mobility equivalent to the trip's
// state at time `at` — the bridge into APIs that take a Mobility (the
// offload engine, DDI, HD-map prefetch).
func (t *Trip) MobilityAt(at time.Duration) Mobility {
	pos := t.PositionAt(at)
	return Mobility{
		Road:    t.Road,
		SpeedMS: t.SpeedAt(at),
		StartX:  pos.X - t.SpeedAt(at)*at.Seconds(), // so PositionAt(at) matches
		LaneY:   t.LaneY,
	}
}

// CommuteTrip returns a representative urban-to-highway profile: stopped,
// urban crawl, arterial, highway, then arterial again.
func CommuteTrip(road *Road) *Trip {
	return &Trip{
		Road: road,
		Legs: []Leg{
			{SpeedMS: 0, Duration: 30 * time.Second},
			{SpeedMS: MPH(15), Duration: 2 * time.Minute},
			{SpeedMS: MPH(35), Duration: 3 * time.Minute},
			{SpeedMS: MPH(70), Duration: 5 * time.Minute},
			{SpeedMS: MPH(35), Duration: 2 * time.Minute},
		},
	}
}
