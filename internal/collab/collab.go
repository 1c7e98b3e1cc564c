// Package collab implements the vehicle-collaboration mechanism the paper
// identifies as an open challenge (§III-C): nearby CAVs share processed
// results over DSRC so a convoy does not redundantly recompute the same
// perception work for the same stretch of road. Results are keyed by
// (kind, road segment, time bucket); sharing is pseudonymous and entries
// expire under a bounded-staleness rule — the paper's synchronization
// concern made concrete.
package collab

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/network"
)

// Key identifies one shareable result: what was computed, where, and for
// which time bucket.
type Key struct {
	// Kind names the computation ("object-detect", "lane-geometry").
	Kind string
	// Segment indexes the road segment the result describes.
	Segment int
	// Bucket is the time-quantized validity window index.
	Bucket int64
}

// Result is one shared computation output.
type Result struct {
	Key Key
	// Producer is the producing vehicle's pseudonym — never its identity.
	Producer string
	// At is when the result was computed.
	At time.Duration
	// Bytes is the payload size moved when the result is shared.
	Bytes float64
	// Value is the result content.
	Value []byte
}

// Keyer quantizes positions and times into result keys.
type Keyer struct {
	// SegmentM is the road-segment length in meters.
	SegmentM float64
	// BucketD is the validity-window duration.
	BucketD time.Duration
}

// NewKeyer validates the quantization parameters.
func NewKeyer(segmentM float64, bucket time.Duration) (Keyer, error) {
	if segmentM <= 0 {
		return Keyer{}, fmt.Errorf("collab: segment length must be positive, got %v", segmentM)
	}
	if bucket <= 0 {
		return Keyer{}, fmt.Errorf("collab: bucket duration must be positive, got %v", bucket)
	}
	return Keyer{SegmentM: segmentM, BucketD: bucket}, nil
}

// For returns the key covering position x at time t.
func (k Keyer) For(kind string, x float64, t time.Duration) Key {
	seg := int(x / k.SegmentM)
	if x < 0 {
		seg--
	}
	return Key{Kind: kind, Segment: seg, Bucket: int64(t / k.BucketD)}
}

// Cache is one vehicle's store of own and received results.
type Cache struct {
	keyer Keyer
	// staleness bounds how old a result may be and still be served.
	staleness time.Duration
	entries   map[Key]Result
	hits      int
	misses    int
}

// NewCache builds a cache with the given keyer and staleness bound.
func NewCache(keyer Keyer, staleness time.Duration) (*Cache, error) {
	if staleness <= 0 {
		return nil, fmt.Errorf("collab: staleness bound must be positive, got %v", staleness)
	}
	return &Cache{keyer: keyer, staleness: staleness, entries: make(map[Key]Result)}, nil
}

// Put stores a result, keeping the newer entry on conflict (last-writer-
// wins by computation time; ties keep the incumbent — deterministic).
func (c *Cache) Put(r Result) {
	if cur, ok := c.entries[r.Key]; ok && cur.At >= r.At {
		return
	}
	c.entries[r.Key] = r
}

// Get returns a result that is still fresh at time now.
func (c *Cache) Get(key Key, now time.Duration) (Result, bool) {
	r, ok := c.entries[key]
	if !ok || now-r.At > c.staleness {
		c.misses++
		return Result{}, false
	}
	c.hits++
	return r, true
}

// Stats returns cumulative hits and misses.
func (c *Cache) Stats() (hits, misses int) { return c.hits, c.misses }

// Vehicle is one convoy member: a mobility trace, a result cache, and a
// pseudonym provider.
type Vehicle struct {
	Name      string
	Mobility  geo.Mobility
	Cache     *Cache
	Pseudonym func(t time.Duration) string

	computed int
	borrowed int
}

// Computed and Borrowed report how many results this vehicle produced
// locally vs received from peers.
func (v *Vehicle) Computed() int { return v.computed }

// Borrowed reports results received from peers.
func (v *Vehicle) Borrowed() int { return v.borrowed }

// Convoy is a set of vehicles in DSRC range of each other that share
// results.
type Convoy struct {
	vehicles []*Vehicle
	dsrc     network.LinkSpec
	rangeM   float64
}

// NewConvoy builds a convoy; rangeM is the DSRC share radius.
func NewConvoy(rangeM float64) (*Convoy, error) {
	if rangeM <= 0 {
		return nil, fmt.Errorf("collab: share range must be positive, got %v", rangeM)
	}
	dsrc, err := network.LookupLink("dsrc")
	if err != nil {
		return nil, err
	}
	return &Convoy{dsrc: dsrc, rangeM: rangeM}, nil
}

// Add registers a vehicle.
func (c *Convoy) Add(v *Vehicle) error {
	if v == nil || v.Name == "" || v.Cache == nil {
		return fmt.Errorf("collab: vehicle needs a name and a cache")
	}
	for _, existing := range c.vehicles {
		if existing.Name == v.Name {
			return fmt.Errorf("collab: vehicle %q already in convoy", v.Name)
		}
	}
	c.vehicles = append(c.vehicles, v)
	return nil
}

// Vehicles returns convoy members sorted by name.
func (c *Convoy) Vehicles() []*Vehicle {
	out := make([]*Vehicle, len(c.vehicles))
	copy(out, c.vehicles)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// neighborsOf returns members within DSRC range of v at time t.
func (c *Convoy) neighborsOf(v *Vehicle, t time.Duration) []*Vehicle {
	pos := v.Mobility.PositionAt(t)
	var out []*Vehicle
	for _, other := range c.Vehicles() {
		if other == v {
			continue
		}
		if other.Mobility.PositionAt(t).Dist(pos) <= c.rangeM {
			out = append(out, other)
		}
	}
	return out
}

// Obtain returns the result for key at time t for vehicle v: from v's own
// cache (free), from a neighbor over DSRC (pull on demand, paying the
// transfer cost — the paper's processed-results sharing), or by computing
// it with the provided compute function (compute cost). The result is
// cached locally either way.
func (c *Convoy) Obtain(v *Vehicle, key Key, t time.Duration, compute func() (Result, time.Duration, error)) (Result, time.Duration, error) {
	if v == nil || compute == nil {
		return Result{}, 0, fmt.Errorf("collab: nil vehicle or compute function")
	}
	if r, ok := v.Cache.Get(key, t); ok {
		return r, 0, nil
	}
	// Ask neighbors: nearest-name-first for determinism.
	for _, n := range c.neighborsOf(v, t) {
		if r, ok := n.Cache.Get(key, t); ok {
			cost, err := c.dsrc.TransferTime(r.Bytes, network.Downlink)
			if err != nil {
				return Result{}, 0, err
			}
			v.Cache.Put(r)
			v.borrowed++
			return r, cost, nil
		}
	}
	// Compute locally and share.
	r, cost, err := compute()
	if err != nil {
		return Result{}, 0, err
	}
	r.Key = key
	if r.At == 0 {
		r.At = t
	}
	if v.Pseudonym != nil {
		r.Producer = v.Pseudonym(t)
	}
	v.Cache.Put(r)
	v.computed++
	return r, cost, nil
}
