// Package hdmap models the High-Definition map the paper's CAVs depend on
// ("a HD map that provides CAVs with detailed road data, such as the road
// shoulders"): a tiled map whose tiles are fetched from the cloud, cached
// on the VCU's SSD, and prefetched ahead of the vehicle so lookups on the
// driving path never block on the network.
package hdmap

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/sim"
)

// Tile is one map tile covering tileLengthM of road.
type Tile struct {
	// Index is the tile number along the corridor.
	Index int
	// Bytes is the tile payload size (lane geometry, shoulders, signs).
	Bytes float64
	// Lanes and SpeedLimitKPH are representative content fields.
	Lanes         int
	SpeedLimitKPH float64
	// ShoulderM is the drivable shoulder width — the paper's example of
	// HD-map detail.
	ShoulderM float64
}

// Config parameterizes the map service.
type Config struct {
	// CacheTiles bounds the on-vehicle tile cache. Zero means 16.
	CacheTiles int
}

// A tile covers tileLengthM of road and carries about tileBytes (dense
// urban HD-map tiles run 5–30 MB/km).
const (
	tileLengthM = 500
	tileBytes   = 12e6
)

// Service serves map tiles to the autonomy stack.
type Service struct {
	cacheTiles int
	fetch      network.Path // to the map provider: LTE, then the WAN
	rng        *sim.RNG

	cache   map[int]Tile
	lru     []int // least-recent first
	hits    int
	misses  int // blocking fetches on the lookup path
	fetches int // all network fetches, incl. prefetch
}

// New builds a map service.
func New(cfg Config, rng *sim.RNG) (*Service, error) {
	if rng == nil {
		return nil, fmt.Errorf("hdmap: nil RNG")
	}
	if cfg.CacheTiles == 0 {
		cfg.CacheTiles = 16
	}
	if cfg.CacheTiles < 2 {
		return nil, fmt.Errorf("hdmap: cache must hold at least 2 tiles")
	}
	lte, err := network.LookupLink("lte")
	if err != nil {
		return nil, err
	}
	wan, err := network.LookupLink("wan")
	if err != nil {
		return nil, err
	}
	return &Service{
		cacheTiles: cfg.CacheTiles,
		fetch:      network.Path{Name: "map-provider", Links: []network.LinkSpec{lte, wan}},
		rng:        rng,
		cache:      make(map[int]Tile, cfg.CacheTiles),
	}, nil
}

// TileIndex returns the tile covering position x.
func (s *Service) TileIndex(x float64) int {
	idx := int(x / tileLengthM)
	if x < 0 {
		idx--
	}
	return idx
}

// generate synthesizes a tile's content deterministically from its index.
func (s *Service) generate(idx int) Tile {
	// Derive per-tile values from a hash of the index so content is
	// stable regardless of access order.
	h := sim.NewRNG(int64(idx)*2654435761 + 12345)
	return Tile{
		Index:         idx,
		Bytes:         tileBytes * h.Uniform(0.7, 1.3),
		Lanes:         2 + h.Intn(3),
		SpeedLimitKPH: []float64{50, 70, 90, 110}[h.Intn(4)],
		ShoulderM:     h.Uniform(0.5, 3.5),
	}
}

// fetchTime returns the network cost of pulling one tile.
func (s *Service) fetchTime(t Tile) (time.Duration, error) {
	return s.fetch.TransferTime(t.Bytes, network.Downlink)
}

// admit inserts a tile, evicting least-recently-used entries.
func (s *Service) admit(t Tile) {
	if _, ok := s.cache[t.Index]; ok {
		s.touch(t.Index)
		return
	}
	for len(s.cache) >= s.cacheTiles {
		oldest := s.lru[0]
		s.lru = s.lru[1:]
		delete(s.cache, oldest)
	}
	s.cache[t.Index] = t
	s.lru = append(s.lru, t.Index)
}

func (s *Service) touch(idx int) {
	for i, v := range s.lru {
		if v == idx {
			s.lru = append(s.lru[:i], s.lru[i+1:]...)
			s.lru = append(s.lru, idx)
			return
		}
	}
}

// Lookup returns the tile covering x. A cache hit is free; a miss blocks
// for the network fetch (the latency the prefetcher exists to hide).
func (s *Service) Lookup(x float64) (Tile, time.Duration, error) {
	idx := s.TileIndex(x)
	if t, ok := s.cache[idx]; ok {
		s.hits++
		s.touch(idx)
		return t, 0, nil
	}
	s.misses++
	t := s.generate(idx)
	cost, err := s.fetchTime(t)
	if err != nil {
		return Tile{}, 0, err
	}
	s.fetches++
	s.admit(t)
	return t, cost, nil
}

// Prefetch pulls the tiles the vehicle will cross within horizon,
// given its mobility at time now. It returns how many tiles were fetched
// and the total background transfer time (not charged to lookups).
func (s *Service) Prefetch(mob geo.Mobility, now, horizon time.Duration) (int, time.Duration, error) {
	if horizon <= 0 {
		return 0, 0, nil
	}
	start := mob.PositionAt(now).X
	end := start + mob.SpeedMS*horizon.Seconds()
	fetched := 0
	var total time.Duration
	for idx := s.TileIndex(start); idx <= s.TileIndex(end); idx++ {
		if _, ok := s.cache[idx]; ok {
			continue
		}
		t := s.generate(idx)
		cost, err := s.fetchTime(t)
		if err != nil {
			return fetched, total, err
		}
		s.fetches++
		fetched++
		total += cost
		s.admit(t)
	}
	return fetched, total, nil
}

// Stats reports hits, blocking misses, and total fetches.
func (s *Service) Stats() (hits, misses, fetches int) { return s.hits, s.misses, s.fetches }

// MissRate returns blocking misses over lookups.
func (s *Service) MissRate() float64 {
	total := s.hits + s.misses
	if total == 0 {
		return 0
	}
	return float64(s.misses) / float64(total)
}
