# Convenience targets for the AtomFS + CRL-H reproduction.

GO ?= go

.PHONY: all build test race lint verify bench bench-json bench-writepath bench-shard bench-compare bench-shard-compare fairness obs-overhead figures conform interdep loc clean fuzz fuzz-smoke cover crash-fuzz wal-bench wal-bench-compare

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

# Context-plumbing conventions (fsapi v2): ctx is always the first
# parameter, and only execution roots (mains, tests, annotated harness
# roots) may mint context.Background().
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/ctxlint

test:
	$(GO) test ./...

# Race everything, then give the schedule-sensitive code (fast-path
# reads vs rename/unlink storms, lock-free dir.Table readers, the
# cancellation storms and mid-traversal aborts, cross-volume rename
# storms, the journal's checkpointer goroutine sealing beside appends and
# the copy-on-write snapshot it reads) extra -race rounds: these are the
# tests whose schedules vary run to run.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 -run 'FastPath|LockFree|Cancel' ./internal/atomfs ./internal/dir ./internal/fuse
	$(GO) test -race -count=4 ./internal/mount
	$(GO) test -race -count=4 ./internal/wal ./internal/spec

# The full verification story: vet + ctxlint, the raced lock-free and
# cancellation packages, then scenarios, sweeps, stress, explorer.
verify: build
	$(GO) vet ./...
	$(GO) run ./cmd/ctxlint
	$(GO) test -race ./internal/atomfs ./internal/dir
	$(GO) run ./cmd/fscheck

# Deterministic schedule fuzzer (internal/schedfuzz). Negative test
# first: a fixed-LP campaign must find the Figure-1 refinement
# violation, shrink it, and the written repro must replay to the same
# violation under cmd/fsreplay. Then a clean-tree campaign must come up
# empty.
fuzz:
	$(GO) run ./cmd/fuzz -bug fixedlp -fastpath off -budget 60s -expect-violation -repro FUZZ_repro.txt
	$(GO) run ./cmd/fsreplay -repro FUZZ_repro.txt
	$(GO) run ./cmd/fuzz -budget 30s -seed 7

# PR-sized fuzz budget for CI: clean tree, 30 seconds, zero findings.
fuzz-smoke:
	$(GO) run ./cmd/fuzz -budget 30s -seed 7

# Crash-schedule fuzzer (DESIGN.md §14): sequential programs against the
# journaled FS, the device killed at torn-record and mid-checkpoint byte
# offsets; every crash point must recover to a relation-accepted state.
crash-fuzz:
	$(GO) run ./cmd/fuzz -crash -budget 30s -seed 7

# Statement-coverage floors for the proof-carrying packages (the
# monitor and the file system under proof), enforced by cmd/covgate.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./cmd/covgate -profile cover.out \
		-floor repro/internal/core=72 \
		-floor repro/internal/atomfs=88 \
		-floor repro/internal/wal=80 \
		-floor repro/internal/block=80 \
		-floor repro/internal/fuse=80

bench:
	$(GO) test -bench=. -benchmem ./...

# Perf trajectory artifact: FastPath + Fig-10/Fig-11 matrix as JSON.
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_fastpath.json

# Write-path matrix (prefix cache vs. root lock-coupling): regenerate
# the committed baseline.
bench-writepath:
	$(GO) run ./cmd/benchjson -suite writepath -o BENCH_writepath.json

# Sharded-namespace matrix (DESIGN.md §13): simulator scaling cells for
# 1/2/4 volumes (the suite itself enforces >= 2x aggregate mutation
# throughput at 4 volumes) plus real mount-resolve-overhead and
# cross-volume-rename cells. Regenerates the committed baseline.
bench-shard:
	$(GO) run ./cmd/benchjson -suite shard -o BENCH_shard.json

# Durability matrix (DESIGN.md §14): group commit vs naive per-op flush
# under simulated fsync latency (the suite itself enforces >= 2x from
# batching), journal CPU overhead vs the bare ramdisk, and recovery
# replay speed. Regenerates the committed baseline.
wal-bench:
	$(GO) run ./cmd/benchjson -suite wal -o BENCH_wal.json

# Durability regression gate, enforced by cmd/benchdiff. The strict
# parts are the pair — group commit may never lose to per-op flushing —
# and the suite's own >= 2x batching gate, both throughput *ratios* that
# hold regardless of host speed. The absolute ns/op cells (CPU-bound
# micro loops, a GC-sensitive recovery replay) swing 25-50% run-to-run
# on a single-CPU host, so like the shard suite's real-execution cells
# they get a wide 60% tolerance and only catch order-of-magnitude
# breakage.
wal-bench-compare:
	$(GO) run ./cmd/benchjson -suite wal -o /tmp/BENCH_wal_current.json
	$(GO) run ./cmd/benchdiff -base BENCH_wal.json -cur /tmp/BENCH_wal_current.json \
		-threshold 0.6 \
		-pair "wal/group-commit/parallel-create-8thr/group<=wal/group-commit/parallel-create-8thr/nogroup"

# Nightly regression gate: a fresh writepath run must stay within 15%
# ns/op of the committed baseline in every cell.
bench-compare:
	$(GO) run ./cmd/benchjson -suite writepath -o /tmp/BENCH_writepath_current.json
	$(GO) run ./cmd/benchdiff -base BENCH_writepath.json -cur /tmp/BENCH_writepath_current.json

# Shard regression gate. The simulator cells are deterministic (virtual
# ticks), so they hold exactly at any threshold and the monotonicity
# pairs — more volumes may never cost more virtual time per op than
# fewer — are the strict gate; the real resolve/rename cells swing
# +/-30% on a single-CPU host, so they get a wide 60% tolerance and
# only catch order-of-magnitude breakage.
bench-shard-compare:
	$(GO) run ./cmd/benchjson -suite shard -o /tmp/BENCH_shard_current.json
	$(GO) run ./cmd/benchdiff -base BENCH_shard.json -cur /tmp/BENCH_shard_current.json \
		-threshold 0.6 \
		-pair "shard-sim/mutate-mix/16thr/vols-4<=shard-sim/mutate-mix/16thr/vols-2" \
		-pair "shard-sim/mutate-mix/16thr/vols-2<=shard-sim/mutate-mix/16thr/vols-1"

# Per-tenant fairness gate: 4-tenant skewed load through the FUSE-like
# server; quota'ing the hog must bring the victims' p99.9 back below the
# unthrottled run's. Exits 1 on failure.
fairness:
	$(GO) run ./cmd/fsbench -fig fair

# Observability overhead gate: the instrumented fast path must stay
# within 5% of the uninstrumented one on read-mostly-95-5.
obs-overhead:
	$(GO) run ./cmd/obsguard

figures:
	$(GO) run ./cmd/fsbench -fig all

conform:
	$(GO) run ./cmd/conform

interdep:
	$(GO) run ./cmd/interdep

loc:
	$(GO) run ./cmd/loc

clean:
	$(GO) clean ./...
