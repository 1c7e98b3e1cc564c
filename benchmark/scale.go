package main

import "time"

// scale sizes the six workloads. Every measured loop stops at whichever
// comes first: the run's -seconds or the scale's work cap. At full scale the
// caps are far away and -seconds decides; at quick scale the caps decide, so
// the smoke test does the same work on any machine.
type scale struct {
	Name      string
	SetupReps int // how many times set-up is repeated for its median (runCtx.setUpAgain)

	// Fleet.
	Vehicles     int
	WarmRounds   int // untimed; their digest includes the merged telemetry
	DigestRounds int // first measured rounds, digest-chained and cross-checked
	MaxRounds    int // cap on warm + measured rounds; sizes the fault horizon
	SpeedupSlice int // measured rounds per shard count for fleet.shard_speedup
	ProbeCalls   int // iterations per layer probe

	// Serve.
	WarmVirtual    time.Duration // virtual time advanced before serving
	Preload        int           // records uploaded in set-up (serve_data)
	SnapshotCap    float64       // closed-loop req/s of serve_snapshot, as a constant (see openLoopShare)
	DataCap        float64       // closed-loop req/s of serve_data, as a constant
	SweepSeconds   time.Duration // per rate in the traced max-rate sweep
	HandlerSamples int           // in-process requests per route

	// DDI.
	IngestWarm   int // records put through the measured store in set-up
	IngestCap    int // cap on records put in the window
	QueryCorpus  int // records behind ddi_query
	QueryWarm    int // untimed warm-up queries
	QueryCap     int // cap on timed queries
	VerifyPerSh  int // queries per shape re-checked against the naive filter
	HuffmanBlock int // records whose payloads form the Huffman probe block
}

var fullScale = scale{
	Name: "full", SetupReps: 3,

	Vehicles: 1000, WarmRounds: 8, DigestRounds: 8, MaxRounds: 480,
	SpeedupSlice: 12, ProbeCalls: 2000,

	WarmVirtual: 600 * time.Second, Preload: 200_000,
	SnapshotCap: 580, DataCap: 2400,
	SweepSeconds: 3 * time.Second, HandlerSamples: 200,

	IngestWarm: deleteEvery * ingestBatch, IngestCap: 64_000_000,
	QueryCorpus: 1_000_000, QueryWarm: 2000, QueryCap: 4_000_000,
	VerifyPerSh: 8, HuffmanBlock: 65_536,
}

var quickScale = scale{
	Name: "quick", SetupReps: 1,

	Vehicles: 50, WarmRounds: 2, DigestRounds: 4, MaxRounds: 10,
	SpeedupSlice: 3, ProbeCalls: 50,

	WarmVirtual: 60 * time.Second, Preload: 5000,
	SnapshotCap: 120, DataCap: 1000,
	SweepSeconds: 200 * time.Millisecond, HandlerSamples: 10,

	IngestWarm: 2 * ingestBatch, IngestCap: 100_000,
	QueryCorpus: 100_000, QueryWarm: 50, QueryCap: 500,
	VerifyPerSh: 2, HuffmanBlock: 4096,
}

// Fixed cadences of the workloads (not scaled).
const (
	fleetEpoch   = 250 * time.Millisecond // virtual time between rounds
	fleetService = "kidnapper-search"

	// The serve tick loop runs at cmd/vdapd's default cadence (-tick 250ms per
	// virtual second). The issue asked for E18's 50 ms / 100 ms and for more
	// than 95% cache hits; at this host's request rate the two exclude each
	// other (measured, uniform mix, three runs each: hit ratio 0.57-0.73 at
	// 50 ms, falling with every stolen quantum and taking allocations per op
	// from 586 to 1039 with it; 0.95-0.96 at vdapd's cadence), and the
	// workload exists for the cache-hit path.
	tickWall = 250 * time.Millisecond
	tickStep = time.Second

	// openLoopShare is the open-loop rate as a share of closed-loop capacity.
	// The issue fixed the rates at 800 and 5000 req/s beside an expected
	// capacity of 1.8k and 12k req/s: 0.44 and 0.42 of it. This host serves
	// the uniform mixes at 570-680 and 2300-2600 req/s, the more the quieter
	// its neighbours (README "Serve phases"); scale.SnapshotCap and DataCap
	// fix the busy-hour figures, 580 and 2400, and the rates keep the issue's
	// share of that measured capacity, not its numbers, which no connection
	// here could send. They are constants: two commits are asked the same
	// question.
	openLoopShare = 0.44

	// ddi_ingest cadence. At 1 ms between records, 75 batches of 4000 are
	// exactly one five-minute partition, so every Compact (the virtual-clock
	// compactor's job, driven by hand) finds one freshly written partition
	// to merge and every slice of the window does the same work; DeleteBefore
	// (the cloud migration) runs every fourth partition and keeps three.
	ingestBatch      = 4000
	compactEvery     = 75  // batches
	deleteEvery      = 300 // batches
	retainVirtual    = 15 * time.Minute
	ingestSpacing    = time.Millisecond
	querySpacing     = 4 * time.Millisecond
	queryMemtableRow = 30_000 // rows left unsealed before the reopen
)
