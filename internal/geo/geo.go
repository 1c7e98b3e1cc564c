// Package geo models the physical world OpenVDAP vehicles move through: a
// road corridor, vehicle mobility along it, and the placement/coverage of
// cellular base stations and roadside units (RSUs).
//
// Distances are in meters, speeds in meters per second. Helper conversions
// for the paper's MPH figures are provided.
package geo

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// MetersPerMile converts statute miles to meters.
const MetersPerMile = 1609.344

// MPH converts miles-per-hour to meters-per-second, the unit used by the
// mobility model. The paper's drive tests were at 35 and 70 MPH.
func MPH(v float64) float64 { return v * MetersPerMile / 3600 }

// Point is a 2-D position in meters.
type Point struct {
	X float64
	Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// StationKind distinguishes infrastructure node types.
type StationKind int

const (
	// BaseStation is a cellular tower (LTE/5G backhaul to the cloud).
	BaseStation StationKind = iota + 1
	// RSU is a roadside unit reachable over DSRC/5G; an XEdge host.
	RSU
	// TrafficSignal is a signal-mounted XEdge host with a small radius.
	TrafficSignal
)

// String returns a short human-readable name for the station kind.
func (k StationKind) String() string {
	switch k {
	case BaseStation:
		return "base-station"
	case RSU:
		return "rsu"
	case TrafficSignal:
		return "traffic-signal"
	default:
		return fmt.Sprintf("station-kind(%d)", int(k))
	}
}

// Station is an infrastructure node with a coverage radius.
type Station struct {
	ID     string
	Kind   StationKind
	Pos    Point
	Radius float64 // coverage radius in meters
}

// Covers reports whether p falls within the station's coverage disk:
// s.Pos.Dist(p) <= s.Radius. A point outside the disk's bounding box is
// refused before the square root, which gives the same answer because
// math.Hypot(dx, dy) is never below max(|dx|, |dy|); FuzzCoversMatchesHypot
// holds the two to the same result for every input, NaN and ±Inf included.
func (s Station) Covers(p Point) bool {
	dx, dy := s.Pos.X-p.X, s.Pos.Y-p.Y
	if math.Abs(dx) > s.Radius || math.Abs(dy) > s.Radius {
		return false
	}
	return math.Hypot(dx, dy) <= s.Radius
}

// Road is a straight corridor of the given length with stations placed
// along it. The paper's Detroit drive test is modeled as such a corridor.
type Road struct {
	Length   float64 // meters
	stations []Station
}

// NewRoad returns a road of the given length. Length must be positive.
func NewRoad(length float64) (*Road, error) {
	if length <= 0 {
		return nil, fmt.Errorf("geo: road length must be positive, got %v", length)
	}
	return &Road{Length: length}, nil
}

// AddStation places a station on the road. Stations are kept sorted by X
// so coverage queries are cheap.
func (r *Road) AddStation(s Station) {
	r.stations = append(r.stations, s)
	sort.Slice(r.stations, func(i, j int) bool { return r.stations[i].Pos.X < r.stations[j].Pos.X })
}

// PlaceStations uniformly places n stations of the given kind and radius
// along the road, offset laterally by offY. IDs are prefix-0..prefix-(n-1).
// It returns the stations placed.
func (r *Road) PlaceStations(n int, kind StationKind, radius, offY float64, prefix string) []Station {
	if n <= 0 {
		return nil
	}
	placed := make([]Station, 0, n)
	spacing := r.Length / float64(n)
	for i := 0; i < n; i++ {
		s := Station{
			ID:     fmt.Sprintf("%s-%d", prefix, i),
			Kind:   kind,
			Pos:    Point{X: spacing/2 + float64(i)*spacing, Y: offY},
			Radius: radius,
		}
		r.AddStation(s)
		placed = append(placed, s)
	}
	return placed
}

// StationsOfKind returns the stations of one kind, in X order.
func (r *Road) StationsOfKind(kind StationKind) []Station {
	var out []Station
	for _, s := range r.stations {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// CoveringStationsInto appends every station whose coverage includes p to
// buf and returns the extended slice. Callers on per-round hot paths pass
// a reused buffer (typically buf[:0]) so coverage queries allocate nothing
// in steady state; a nil buf allocates.
func (r *Road) CoveringStationsInto(p Point, buf []Station) []Station {
	for _, s := range r.stations {
		if s.Covers(p) {
			buf = append(buf, s)
		}
	}
	return buf
}

// Mobility describes a vehicle moving along the road at constant speed,
// wrapping at the end of the corridor (so arbitrarily long experiments work
// on a finite road).
type Mobility struct {
	Road    *Road
	SpeedMS float64 // meters per second; 0 means parked
	StartX  float64 // position at t=0
	LaneY   float64 // lateral offset
}

// PositionAt returns the vehicle position at virtual time t.
func (m Mobility) PositionAt(t time.Duration) Point {
	if m.Road == nil || m.Road.Length <= 0 {
		return Point{X: m.StartX, Y: m.LaneY}
	}
	x := m.StartX + m.SpeedMS*t.Seconds()
	x = math.Mod(x, m.Road.Length)
	if x < 0 {
		x += m.Road.Length
	}
	return Point{X: x, Y: m.LaneY}
}
