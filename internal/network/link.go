// Package network models OpenVDAP's communication substrate: generic link
// specifications (DSRC, LTE, 5G, WiFi, BLE, wired backhaul) used by the
// offloading engine, and a mechanistic cellular uplink channel whose
// mobility-dependent loss reproduces the paper's Figure-2 drive test.
package network

import (
	"fmt"
	"time"
)

// Tech enumerates link technologies available on the VCU (paper §IV-A).
type Tech int

const (
	// DSRC is dedicated short-range communication (V2V / V2-RSU).
	DSRC Tech = iota + 1
	// LTE is 4G cellular.
	LTE
	// FiveG is 5G cellular.
	FiveG
	// WiFi is 802.11 to nearby infrastructure.
	WiFi
	// BLE is Bluetooth low energy (passenger devices).
	BLE
	// Wired is Ethernet / optical fiber (RSU or base station to cloud).
	Wired
)

var techNames = map[Tech]string{
	DSRC: "dsrc", LTE: "lte", FiveG: "5g", WiFi: "wifi", BLE: "ble", Wired: "wired",
}

// String returns the lower-case technology name.
func (t Tech) String() string {
	if s, ok := techNames[t]; ok {
		return s
	}
	return fmt.Sprintf("tech(%d)", int(t))
}

// LinkSpec describes a point-to-point link's nominal characteristics.
type LinkSpec struct {
	Name     string
	Tech     Tech
	UpMbps   float64       // uplink bandwidth, megabits per second
	DownMbps float64       // downlink bandwidth
	RTT      time.Duration // round-trip propagation + protocol latency
	BaseLoss float64       // residual packet loss probability at rest
	RangeM   float64       // usable range in meters (0 = unlimited)
}

// Validate reports configuration errors.
func (l LinkSpec) Validate() error {
	if l.Name == "" {
		return fmt.Errorf("network: link has no name")
	}
	if l.UpMbps <= 0 || l.DownMbps <= 0 {
		return fmt.Errorf("network: link %s must have positive bandwidth", l.Name)
	}
	if l.BaseLoss < 0 || l.BaseLoss >= 1 {
		return fmt.Errorf("network: link %s loss %v outside [0,1)", l.Name, l.BaseLoss)
	}
	return nil
}

// Direction selects which side of an asymmetric link a transfer uses.
type Direction int

const (
	// Uplink is from the vehicle toward infrastructure.
	Uplink Direction = iota + 1
	// Downlink is from infrastructure toward the vehicle.
	Downlink
)

// TransferTime returns the time to reliably move sizeBytes across the link
// in the given direction. Reliability is modeled as goodput scaling: loss
// triggers retransmission, shrinking effective bandwidth by (1-loss), plus
// one RTT of protocol latency. sizeBytes of zero costs one RTT.
func (l LinkSpec) TransferTime(sizeBytes float64, d Direction) (time.Duration, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	if sizeBytes < 0 {
		return 0, fmt.Errorf("network: negative transfer size %v", sizeBytes)
	}
	mbps := l.UpMbps
	if d == Downlink {
		mbps = l.DownMbps
	}
	goodput := mbps * (1 - l.BaseLoss) * 1e6 / 8 // bytes per second
	return l.RTT + time.Duration(sizeBytes/goodput*float64(time.Second)), nil
}

// OneWayLatency returns half the RTT.
func (l LinkSpec) OneWayLatency() time.Duration { return l.RTT / 2 }

// Catalog returns the default link catalog keyed by name.
func Catalog() map[string]LinkSpec {
	specs := []LinkSpec{
		{Name: "dsrc", Tech: DSRC, UpMbps: 27, DownMbps: 27, RTT: 4 * time.Millisecond, BaseLoss: 0.01, RangeM: 300},
		{Name: "lte", Tech: LTE, UpMbps: 20, DownMbps: 80, RTT: 50 * time.Millisecond, BaseLoss: 0.002, RangeM: 2000},
		{Name: "5g", Tech: FiveG, UpMbps: 200, DownMbps: 900, RTT: 12 * time.Millisecond, BaseLoss: 0.001, RangeM: 500},
		{Name: "wifi", Tech: WiFi, UpMbps: 120, DownMbps: 120, RTT: 6 * time.Millisecond, BaseLoss: 0.005, RangeM: 100},
		{Name: "ble", Tech: BLE, UpMbps: 1, DownMbps: 1, RTT: 15 * time.Millisecond, BaseLoss: 0.01, RangeM: 10},
		{Name: "backhaul", Tech: Wired, UpMbps: 1000, DownMbps: 1000, RTT: 2 * time.Millisecond, BaseLoss: 0},
		{Name: "wan", Tech: Wired, UpMbps: 500, DownMbps: 500, RTT: 60 * time.Millisecond, BaseLoss: 0},
	}
	out := make(map[string]LinkSpec, len(specs))
	for _, s := range specs {
		out[s.Name] = s
	}
	return out
}

// LookupLink returns the named catalog link.
func LookupLink(name string) (LinkSpec, error) {
	l, ok := Catalog()[name]
	if !ok {
		return LinkSpec{}, fmt.Errorf("network: unknown link %q", name)
	}
	return l, nil
}

// Path is a sequence of links traversed in order (e.g. vehicle→LTE→WAN→cloud).
type Path struct {
	Name  string
	Links []LinkSpec
}

// TransferTime sums per-hop reliable transfer times in direction d.
func (p Path) TransferTime(sizeBytes float64, d Direction) (time.Duration, error) {
	if len(p.Links) == 0 {
		return 0, fmt.Errorf("network: path %q has no links", p.Name)
	}
	var total time.Duration
	for _, l := range p.Links {
		t, err := l.TransferTime(sizeBytes, d)
		if err != nil {
			return 0, fmt.Errorf("path %q: %w", p.Name, err)
		}
		total += t
	}
	return total, nil
}

// RTT sums link round-trip times along the path.
func (p Path) RTT() time.Duration {
	var total time.Duration
	for _, l := range p.Links {
		total += l.RTT
	}
	return total
}
