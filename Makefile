GO ?= go

.PHONY: build test vet race verify determinism parity fuzz-smoke bench bench-check bench-pair microbench clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# verify is the tier-1 gate: everything must build, vet clean, be
# gofmt-clean, and pass under the race detector.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	$(GO) test -race ./...

# determinism runs the E13 fleet sweep (stdout and -trace file) and the
# E14 chaos sweep (stdout untraced, then stdout and -trace file traced)
# twice with the same seed at different worker-pool sizes, the E16 scaling
# sweep at two shard counts, the E17 observability run across both axes,
# and the E20 DDI query digest at two worker counts, requiring
# byte-identical reports every time: neither the sharded replication
# runner nor the epoch-barrier fleet executor may leak scheduling order
# into results, telemetry, fault plans, sampled series, spans, or
# flight-recorder logs. The traced chaos report must also equal the
# untraced one: a tracer observes, it does not steer. It is also CI's
# end-to-end run of those five experiments.
determinism:
	$(GO) build -o /tmp/vdapbench ./cmd/vdapbench
	/tmp/vdapbench -exp sweep -seed 7 -reps 4 -parallel 1 -trace /tmp/sweep-p1.json 2>/dev/null > /tmp/sweep-p1.txt
	/tmp/vdapbench -exp sweep -seed 7 -reps 4 -parallel 4 -trace /tmp/sweep-p4.json 2>/dev/null > /tmp/sweep-p4.txt
	diff -u /tmp/sweep-p1.txt /tmp/sweep-p4.txt
	cmp /tmp/sweep-p1.json /tmp/sweep-p4.json
	@echo "determinism: sweep report and trace byte-identical across -parallel levels"
	/tmp/vdapbench -exp chaos -seed 7 -reps 4 -parallel 1 > /tmp/chaos-p1.txt
	/tmp/vdapbench -exp chaos -seed 7 -reps 4 -parallel 4 > /tmp/chaos-p4.txt
	diff -u /tmp/chaos-p1.txt /tmp/chaos-p4.txt
	@echo "determinism: chaos reports byte-identical across -parallel levels"
	/tmp/vdapbench -exp chaos -seed 7 -reps 4 -parallel 1 -trace /tmp/chaos-p1.json 2>/dev/null > /tmp/chaos-t1.txt
	/tmp/vdapbench -exp chaos -seed 7 -reps 4 -parallel 4 -trace /tmp/chaos-p4.json 2>/dev/null > /tmp/chaos-t4.txt
	diff -u /tmp/chaos-p1.txt /tmp/chaos-t1.txt
	diff -u /tmp/chaos-t1.txt /tmp/chaos-t4.txt
	cmp /tmp/chaos-p1.json /tmp/chaos-p4.json
	@echo "determinism: traced chaos report equals the untraced one; trace byte-identical across -parallel levels"
	/tmp/vdapbench -exp scale -seed 7 -vehicles 60,120 -shards 1 > /tmp/scale-s1.txt
	/tmp/vdapbench -exp scale -seed 7 -vehicles 60,120 -shards 4 > /tmp/scale-s4.txt
	diff -u /tmp/scale-s1.txt /tmp/scale-s4.txt
	@echo "determinism: scale reports byte-identical across -shards levels"
	/tmp/vdapbench -exp obs -seed 7 -reps 2 -parallel 1 -shards 1 -runreport /tmp/obs-p1.json 2>/dev/null > /tmp/obs-p1.txt
	/tmp/vdapbench -exp obs -seed 7 -reps 2 -parallel 4 -shards 1 -runreport /tmp/obs-p4.json 2>/dev/null > /tmp/obs-p4.txt
	diff -u /tmp/obs-p1.txt /tmp/obs-p4.txt
	diff -u /tmp/obs-p1.json /tmp/obs-p4.json
	@echo "determinism: obs series + events byte-identical across -parallel levels"
	/tmp/vdapbench -exp obs -seed 7 -reps 2 -parallel 2 -shards 4 -runreport /tmp/obs-s4.json 2>/dev/null > /tmp/obs-s4.txt
	diff -u /tmp/obs-p1.txt /tmp/obs-s4.txt
	diff -u /tmp/obs-p1.json /tmp/obs-s4.json
	@echo "determinism: obs series + events byte-identical across -shards levels"
	/tmp/vdapbench -exp ddi -seed 7 -records 200000 -parallel 1 > /tmp/ddi-p1.txt
	/tmp/vdapbench -exp ddi -seed 7 -records 200000 -parallel 4 > /tmp/ddi-p4.txt
	diff -u /tmp/ddi-p1.txt /tmp/ddi-p4.txt
	@echo "determinism: E20 DDI query digest byte-identical across -parallel levels"

# parity checks that a change keeps behaviour: `make parity PARENT=HEAD~1`
# extracts PARENT into a throw-away directory (as bench-pair does), builds
# vdapbench there and from the working tree, makes on each side the runs
# `-exp all -seed 42`, `-exp obs -runreport` and every run of `make
# determinism` (stdout, run report and trace files), and diffs the two
# sides; exit 1 on any difference. Not wired into CI: a change may alter
# an output on purpose.
PARITY = $(or $(TMPDIR),/tmp)/vdap-parity
parity:
	@test -n "$(PARENT)" || { echo "usage: make parity PARENT=<ref>"; exit 2; }
	rm -rf "$(PARITY)" && mkdir -p "$(PARITY)/src" "$(PARITY)/parent" "$(PARITY)/change"
	git archive "$(PARENT)" | tar -x -C "$(PARITY)/src"
	cd "$(PARITY)/src" && $(GO) build -o "$(PARITY)/parent.bin" ./cmd/vdapbench
	$(GO) build -o "$(PARITY)/change.bin" ./cmd/vdapbench
	set -e; for side in parent change; do \
		b="$(PARITY)/$$side.bin"; d="$(PARITY)/$$side"; \
		$$b -exp all -seed 42 > $$d/all.txt; \
		$$b -exp obs -runreport $$d/runreport.json 2>/dev/null > $$d/obs.txt; \
		$$b -exp sweep -seed 7 -reps 4 -parallel 1 -trace $$d/sweep-p1.json 2>/dev/null > $$d/sweep-p1.txt; \
		$$b -exp sweep -seed 7 -reps 4 -parallel 4 -trace $$d/sweep-p4.json 2>/dev/null > $$d/sweep-p4.txt; \
		$$b -exp chaos -seed 7 -reps 4 -parallel 1 > $$d/chaos-p1.txt; \
		$$b -exp chaos -seed 7 -reps 4 -parallel 4 > $$d/chaos-p4.txt; \
		$$b -exp chaos -seed 7 -reps 4 -parallel 1 -trace $$d/chaos-p1.json 2>/dev/null > $$d/chaos-t1.txt; \
		$$b -exp chaos -seed 7 -reps 4 -parallel 4 -trace $$d/chaos-p4.json 2>/dev/null > $$d/chaos-t4.txt; \
		$$b -exp scale -seed 7 -vehicles 60,120 -shards 1 > $$d/scale-s1.txt; \
		$$b -exp scale -seed 7 -vehicles 60,120 -shards 4 > $$d/scale-s4.txt; \
		$$b -exp obs -seed 7 -reps 2 -parallel 1 -shards 1 -runreport $$d/obs-p1.json 2>/dev/null > $$d/obs-p1.txt; \
		$$b -exp obs -seed 7 -reps 2 -parallel 4 -shards 1 -runreport $$d/obs-p4.json 2>/dev/null > $$d/obs-p4.txt; \
		$$b -exp obs -seed 7 -reps 2 -parallel 2 -shards 4 -runreport $$d/obs-s4.json 2>/dev/null > $$d/obs-s4.txt; \
		$$b -exp ddi -seed 7 -records 200000 -parallel 1 > $$d/ddi-p1.txt; \
		$$b -exp ddi -seed 7 -records 200000 -parallel 4 > $$d/ddi-p4.txt; \
	done
	diff -r "$(PARITY)/parent" "$(PARITY)/change"
	@echo "parity: every output byte-identical to $(PARENT)'s"

# fuzz-smoke runs each fuzz target for ten seconds, starting from its
# corpus under testdata/fuzz/. CI runs it after determinism; run it before
# pushing a change to any code below.
FUZZ = $(GO) test -run '^$$' -fuzztime=10s -fuzz
fuzz-smoke:
# Decoders and parsers of untrusted bytes.
	$(FUZZ) '^FuzzAcceptsGzip$$' ./internal/libvdap
	$(FUZZ) '^FuzzParseSeconds$$' ./internal/libvdap
# The raw query-string reader against url.ParseQuery(raw).Get(key).
	$(FUZZ) '^FuzzQueryGet$$' ./internal/libvdap
	$(FUZZ) '^FuzzAppendDecode$$' ./internal/huffman
	$(FUZZ) '^FuzzReplayWAL$$' ./internal/ddi
	$(FUZZ) '^FuzzDecodeSegment$$' ./internal/ddi
# The DDI planner's column kernels against Query.Matches.
	$(FUZZ) '^FuzzPlanKernels$$' ./internal/ddi
# A decoder of untrusted bytes.
	$(FUZZ) '^FuzzUnmarshalCompressed$$' ./internal/models
# The coverage test's bounding-box shortcut against math.Hypot.
	$(FUZZ) '^FuzzCoversMatchesHypot$$' ./internal/geo
# The resilient ladder's next-site search against the sort-everything
# search it replaced.
	$(FUZZ) '^FuzzNextRemoteMatchesReference$$' ./internal/offload
# The series sampler against a reference that rebuilds every lane each tick.
	$(FUZZ) '^FuzzSamplerMatchesReference$$' ./internal/obs
# The DDI's record cache against the container/list LRU it replaced.
	$(FUZZ) '^FuzzMemCacheMatchesReference$$' ./internal/ddi
# The slab span tracer against the pointer-tree tracer it replaced: same
# renders, Chrome export bytes, counts, components and span IDs over random
# start/leaf/finish/set/merge sequences and caps.
	$(FUZZ) '^FuzzTracerMatchesReference$$' ./internal/trace
# Flight-recorder event JSON as the libvdap client decodes it: no panic, and
# encode is stable under decode.
	$(FUZZ) '^FuzzEventJSON$$' ./internal/obs
# The slot-ring flight recorder against a plain []Event recorder: same
# events, filtered exports, dropped count, table and JSON bytes over random
# emit/merge/wrap programs.
	$(FUZZ) '^FuzzRecorderMatchesReference$$' ./internal/obs
# Arbitrary predict and upload request bodies: decoded as json.Decoder
# decodes them (same error, status and value), never a 500, every reply
# JSON-typed and decodable.
	$(FUZZ) '^FuzzPredictBody$$' ./internal/libvdap
# The fault injector's scratch path adjuster against the copying one it
# replaced.
	$(FUZZ) '^FuzzAdjustPathMatchesCopy$$' ./internal/faults
# The telemetry histogram's (value, count) bins against the
# keep-every-sample histogram they replaced.
	$(FUZZ) '^FuzzHistogramMatchesSamples$$' ./internal/telemetry

# bench runs the repository's one wall-clock ledger, benchmark/ (all six
# workloads, each in a fresh child process; see benchmark/README.md), then
# refreshes RUN_REPORT.json from the E17 observability run. For the raw
# per-package microbenchmarks use `make microbench`.
bench:
	$(GO) run ./benchmark
	$(GO) run ./cmd/vdapbench -exp obs -runreport RUN_REPORT.json > /dev/null

# bench-check measures ten runs per workload at the baseline's seeds
# (101..110, so digests are compared too) and checks them pair by pair
# against the committed baseline; exit 1 on a regression. Same-host only:
# benchmark/baseline/ was measured on one machine (its env block says
# which) and wall-clock numbers from another do not compare. Not wired
# into CI for that reason. About 15 minutes.
bench-check:
	$(GO) run ./benchmark -repeat 10 -seed 101 -out .bench_build/now.json
	$(GO) run ./benchmark -check benchmark/baseline/set-a.json .bench_build/now.json

# bench-pair measures a change the way a claimed gain must be measured:
# `make bench-pair W=serve_snapshot PARENT=HEAD~1 [N=10]` extracts PARENT
# into a throw-away directory, runs benchmark/run.sh for workload W at full
# length on parent and working tree in N alternating pairs, and prints every
# run, each side's median and quartiles per metric, and the pair win count;
# OUT=BENCH_prNN.json also writes all of it, with each side's commit and
# machine, as JSON. Same-host only, like bench-check, and not wired into CI.
# About N x 2 x 15 s plus two builds.
bench-pair:
	$(GO) run ./cmd/benchpair -workload "$(W)" -parent "$(PARENT)" -pairs $(or $(N),10) $(if $(OUT),-out "$(OUT)")

microbench:
	$(GO) test -bench=. -benchmem ./...

clean:
	$(GO) clean ./...
