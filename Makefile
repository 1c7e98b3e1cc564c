GO ?= go

.PHONY: build test vet race verify determinism bench bench-check bench-pair microbench clean

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
# E14 chaos sweep twice with the same seed at different worker-pool
# sizes, the E16 scaling sweep at two shard counts, the E17 observability run across both axes, and the E19
# network-chaos plan and E20 DDI query digest at two worker counts,
# requiring byte-identical reports every time: neither the sharded
# replication runner nor the epoch-barrier fleet executor may leak
# scheduling order into results, telemetry, fault plans, sampled series,
# or flight-recorder logs. It is also CI's end-to-end run of those six
# experiments.
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
	/tmp/vdapbench -exp netchaos -seed 7 -parallel 1 > /tmp/netchaos-p1.txt
	/tmp/vdapbench -exp netchaos -seed 7 -parallel 4 > /tmp/netchaos-p4.txt
	diff -u /tmp/netchaos-p1.txt /tmp/netchaos-p4.txt
	@echo "determinism: E19 chaos plan byte-identical across -parallel levels"
	/tmp/vdapbench -exp ddi -seed 7 -records 200000 -parallel 1 > /tmp/ddi-p1.txt
	/tmp/vdapbench -exp ddi -seed 7 -records 200000 -parallel 4 > /tmp/ddi-p4.txt
	diff -u /tmp/ddi-p1.txt /tmp/ddi-p4.txt
	@echo "determinism: E20 DDI query digest byte-identical across -parallel levels"

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
# run, each side's median and quartiles per metric, and the pair win count.
# Same-host only, like bench-check, and not wired into CI. About
# N x 2 x 15 s plus two builds.
bench-pair:
	$(GO) run ./cmd/benchpair -workload "$(W)" -parent "$(PARENT)" -pairs $(or $(N),10)

microbench:
	$(GO) test -bench=. -benchmem ./...

clean:
	$(GO) clean ./...
