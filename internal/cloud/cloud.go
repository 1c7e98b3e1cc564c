// Package cloud models the remote tier: the offload destination of last
// resort and the data server DDI migrates vehicle data to (paper §IV-D
// "eventually migrated to a cloud based data server ... open to the
// community").
package cloud

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/network"
	"repro/internal/xedge"
)

// Cloud bundles the compute site with the community data server.
type Cloud struct {
	site *xedge.Site
	data *DataServer
}

// New builds the cloud tier.
func New() (*Cloud, error) {
	site, err := xedge.NewCloud()
	if err != nil {
		return nil, err
	}
	return &Cloud{site: site, data: NewDataServer()}, nil
}

// Site returns the compute site for offloading.
func (c *Cloud) Site() *xedge.Site { return c.site }

// Data returns the community data server.
func (c *Cloud) Data() *DataServer { return c.data }

// DataServer is the community data server's ledger: how many records and
// payload bytes were migrated, and how many records came from each
// vehicle pseudonym. It keeps no payloads, so its memory grows with the
// pseudonyms, not the records; the open query API the paper describes for
// the community is not reproduced. It is safe for concurrent use (the
// libvdap HTTP tier reaches it from server goroutines).
type DataServer struct {
	mu        sync.Mutex
	count     int
	bytes     int64
	byVehicle map[string]int
}

// NewDataServer returns an empty archive.
func NewDataServer() *DataServer { return &DataServer{byVehicle: make(map[string]int)} }

// Ingest accounts one DDI migration: records records from vehicle (a
// pseudonym, never a real identity) carrying payloadBytes of payload.
func (d *DataServer) Ingest(vehicle string, records int, payloadBytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.count += records
	d.bytes += payloadBytes
	d.byVehicle[vehicle] += records
}

// Count returns the number of archived records.
func (d *DataServer) Count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}

// Bytes returns total archived payload bytes.
func (d *DataServer) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

// Records returns how many archived records came from vehicle.
func (d *DataServer) Records(vehicle string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.byVehicle[vehicle]
}

// MigrationCost returns the transfer time for migrating sizeBytes from the
// vehicle to the data server over the given uplink path.
func MigrationCost(path network.Path, sizeBytes float64) (time.Duration, error) {
	if sizeBytes < 0 {
		return 0, fmt.Errorf("cloud: negative migration size %v", sizeBytes)
	}
	return path.TransferTime(sizeBytes, network.Uplink)
}
