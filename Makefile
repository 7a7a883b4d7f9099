# Convenience targets for the AtomFS + CRL-H reproduction.

GO ?= go

.PHONY: all build test race lint verify bench fairness obs-overhead figures conform interdep loc clean fuzz fuzz-smoke cover crash-fuzz

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
