// Package ddi implements OpenVDAP's Driving Data Integrator (paper §IV-D):
// a collector layer for vehicle telemetry and external context (weather,
// traffic, social events), a two-tier database (in-memory TTL cache over a
// persistent disk store, standing in for Redis over MySQL), and a service
// layer with upload/download requests keyed by time and location.
package ddi

import (
	"fmt"
	"time"
)

// Source identifies where a record came from.
type Source string

// Collector sources (paper Figure 7's four data aspects, expanded).
const (
	SourceOBD     Source = "obd"
	SourceGPS     Source = "gps"
	SourceWeather Source = "weather"
	SourceTraffic Source = "traffic"
	SourceSocial  Source = "social"
	SourceUser    Source = "user" // upload requests from applications
)

// Record is one stored datum. All records carry location and timestamp
// (paper: "all the related data includes location and timestamp").
type Record struct {
	// ID is assigned by the store on insert (monotonic).
	ID uint64 `json:"id"`
	// Source classifies the record.
	Source Source `json:"source"`
	// At is the virtual capture time.
	At time.Duration `json:"at"`
	// X, Y locate the vehicle at capture time.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Payload is the serialized datum (JSON from the collectors).
	Payload []byte `json:"payload"`
}

// Validate reports structural errors.
func (r *Record) Validate() error {
	if r.Source == "" {
		return fmt.Errorf("ddi: record has no source")
	}
	if r.At < 0 {
		return fmt.Errorf("ddi: record has negative timestamp")
	}
	if len(r.Payload) == 0 {
		return fmt.Errorf("ddi: record has empty payload")
	}
	// A segment's trailer is JSON, which has no NaN or infinity: a stored
	// non-finite coordinate would make every later seal fail.
	if !finite(r.X) || !finite(r.Y) {
		return fmt.Errorf("ddi: record has non-finite coordinates (%v, %v)", r.X, r.Y)
	}
	return nil
}

// SizeBytes approximates the record's storage footprint.
func (r *Record) SizeBytes() int { return len(r.Payload) + 48 }

// Query selects records by source, time window, and optional spatial box.
type Query struct {
	// Source filters by collector; empty matches all.
	Source Source
	// From and To bound the capture time (inclusive).
	From time.Duration
	To   time.Duration
	// Near, when Radius > 0, keeps records within Radius meters of (X, Y).
	X, Y, Radius float64
	// Limit bounds result count; 0 means unlimited.
	Limit int
}

// Matches reports whether a record satisfies the query.
func (q Query) Matches(r *Record) bool {
	if q.Source != "" && r.Source != q.Source {
		return false
	}
	if r.At < q.From || (q.To > 0 && r.At > q.To) {
		return false
	}
	if q.Radius > 0 {
		dx, dy := r.X-q.X, r.Y-q.Y
		if dx*dx+dy*dy > q.Radius*q.Radius {
			return false
		}
	}
	return true
}
