// Package schedfuzz is a deterministic concurrency fuzzer for the
// monitored AtomFS. Where the interleaving explorer (internal/explore)
// parks operations with a seeded *probability*, this package takes full
// control of the interleaving: worker goroutines running fixed op
// programs stop at every instrumentation point (lock attempts, seqlock
// sections, cancellation polls, LP brackets), and a virtual scheduler —
// driven by an explicit byte string of decisions, extended by a seeded
// PRNG when the string runs out — picks exactly which worker advances
// next. At most one worker runs between yield points, so a given
// (ops, schedule, faults) triple replays bit-identically; that is what
// makes counterexamples shrinkable and repro files replayable.
//
// The scheduler predicts blocking instead of discovering it: an attempt
// to lock an inode held by another (parked) worker is never granted, and
// a fast-path read is never granted into an open seqlock write section
// (where SeqCount.ReadRetries would spin forever under serialization).
// If every parked worker is predicted blocked, that is a genuine lock
// cycle and is reported as a deadlock finding.
package schedfuzz

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomfs"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fsapi"
	"repro/internal/fstest"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/trace"
)

// bgCtx is the fuzz harness's root context: like the explorer, this is
// an execution root, so the background context is its to mint.
// ctxlint:allow
var bgCtx = context.Background()

// Options fixes everything about an execution that is not part of the
// seed: the monitor mode under test, the traversal-safety switch, the
// PRNG seed used to extend the decision string, and the stall watchdog.
type Options struct {
	Mode   core.Mode
	Unsafe bool
	// RNG seeds the extension PRNG: when the seed's Sched bytes run out,
	// further decisions come from rand.New(rand.NewSource(RNG)). Every
	// consumed decision — scripted or generated — is recorded in
	// RunResult.Sched, so a replay with the recorded string and the same
	// RNG is exact even past the scripted prefix.
	RNG int64
	// StallTimeout aborts a run when no scheduler event arrives for this
	// long (a tracking bug, not a finding). Default 10s.
	StallTimeout time.Duration
}

// RunResult is one execution's complete outcome.
type RunResult struct {
	// Violations are the monitor's findings, first one leading; the first
	// violation's kind is the run's failure signature.
	Violations     []core.Violation
	Counterexample *core.Counterexample
	// Deadlocked reports that every live worker was predicted blocked —
	// a genuine lock cycle under the serialized schedule. DeadlockInfo
	// describes who was parked where, for the human reading the finding.
	Deadlocked   bool
	DeadlockInfo string
	// OracleErr is a lincheck oracle failure over the recorded history
	// (only checked on monitor-clean runs small enough to check).
	OracleErr error
	// QuiesceErr is a failed quiescent abstract/concrete comparison.
	QuiesceErr error
	// HarnessErr reports a harness malfunction (stall); not a finding.
	HarnessErr error
	// VolStats holds each volume's monitor stats in cross-volume runs
	// (index 0 = root volume); nil for single-volume runs, whose stats
	// are in Stats.
	VolStats []core.Stats
	// Sched is the concrete decision string consumed: the scripted prefix
	// actually used plus any PRNG extension. Feeding it back as the
	// seed's Sched replays this run exactly.
	Sched []byte
	// Cov is the run's sorted coverage key set (yield-point×op pairs,
	// lock-site pairs, monitor event kinds).
	Cov    []uint64
	Ops    int // operations started (including transient-fault retries)
	Grants int // scheduler decisions taken
	Stats  core.Stats
}

// Signature is the run's deterministic failure class: "" for clean,
// the first violation's kind name, "deadlock", "oracle", "quiesce", or
// "harness". Shrinking preserves the signature, not the whole result.
func (r *RunResult) Signature() string {
	switch {
	case r == nil:
		return ""
	case r.HarnessErr != nil:
		return "harness"
	case len(r.Violations) > 0:
		return r.Violations[0].Kind.String()
	case r.Deadlocked:
		return "deadlock"
	case r.OracleErr != nil:
		return "oracle"
	case r.QuiesceErr != nil:
		return "quiesce"
	}
	return ""
}

// Failed reports whether the run is a finding (clean and harness-error
// runs are not).
func (r *RunResult) Failed() bool {
	s := r.Signature()
	return s != "" && s != "harness"
}

// parkKind classifies why a worker stopped, for blocking prediction.
type parkKind uint8

const (
	parkYield       parkKind = iota // always runnable
	parkOpStart                     // about to start its next op; always runnable
	parkLockAttempt                 // about to lock arrival.ino; blocked while held
	parkSeqAttempt                  // about to open the seqlock write section
	parkFastSnap                    // about to snapshot the seqlock; blocked while a section is open
)

// arrival is one worker event: either a park (worker stopped at a yield
// point and waits for a grant) or completion (done=true). vol identifies
// which volume's hook fired (always 0 in single-volume runs); inodes are
// offset per volume before tracking so the ownership maps never conflate
// two volumes' independent inode spaces.
type arrival struct {
	w     int
	vol   int
	kind  parkKind
	done  bool
	point atomfs.HookPoint
	op    spec.Op
	ino   spec.Inum
}

// volInoStride separates the per-volume inode spaces in the scheduler's
// ownership tracking (volumes allocate inums independently from 1).
const volInoStride spec.Inum = 1 << 32

// workerState is the per-worker side of the harness. yieldIdx, fc and
// fault are only touched by the worker's own goroutine (and read by the
// hook, which runs on that same goroutine).
type workerState struct {
	id       int
	grant    chan struct{}
	yieldIdx int
	fc       *faultCtx
	fault    *Fault
}

type faultKey struct{ w, op int }

// harness wires one execution: the fs under test, the monitored
// channels, and the drain switch. subject is what workers apply ops to —
// the fs itself in single-volume runs, the recording namespace wrapper
// in cross-volume runs.
type harness struct {
	fs      *atomfs.FS
	subject fsapi.FS
	events  chan arrival
	// current is the worker holding the run token. Written by the
	// scheduler before each grant; read by the hook on the running
	// worker's goroutine (the grant-channel send orders the two).
	current  *workerState
	workers  []*workerState
	faults   map[faultKey]*Fault
	draining atomic.Bool
	drain    sync.Once
	violated atomic.Bool
	covSet   map[uint64]struct{}
}

// Coverage key namespaces (top byte of the key).
const (
	covYield uint64 = 1 << 56 // (yield point, op)
	covPair  uint64 = 2 << 56 // (prev lock site, lock site, op)
	covEvent uint64 = 3 << 56 // monitor/obs flight event kinds
)

func (h *harness) cov(key uint64) { h.covSet[key] = struct{}{} }

// hookFor returns the hook for one volume: it runs on the currently-
// granted worker's goroutine at every instrumented yield point — count
// the yield (fault triggers key off the count), fire any due fault, then
// park until granted again. Single-volume runs install hookFor(0).
func (h *harness) hookFor(vol int) func(atomfs.HookEvent) {
	return func(ev atomfs.HookEvent) {
		if h.draining.Load() {
			return
		}
		ws := h.current
		if ws == nil {
			return
		}
		ws.yieldIdx++
		h.maybeFire(ws)
		k := parkYield
		switch ev.Point {
		case atomfs.HookLockAttempt, atomfs.HookFastLock:
			k = parkLockAttempt
		case atomfs.HookSeqAttempt:
			k = parkSeqAttempt
		case atomfs.HookFastSnap:
			k = parkFastSnap
		}
		ino := ev.Ino
		if ino != 0 {
			ino += volInoStride * spec.Inum(vol)
		}
		h.park(ws, arrival{w: ws.id, vol: vol, kind: k, point: ev.Point, op: ev.Op, ino: ino})
	}
}

// maybeFire expires the worker's fault context when its op reaches the
// fault's yield index.
func (h *harness) maybeFire(ws *workerState) {
	if ws.fault != nil && ws.fc != nil && ws.fault.Yield == ws.yieldIdx {
		ws.fc.expire()
	}
}

// park hands the run token back to the scheduler and waits for a grant.
// During drain both halves are skipped: the worker free-runs to the end
// of its program (atomfs itself is deadlock-free once nothing is
// suspended).
func (h *harness) park(ws *workerState, a arrival) {
	if h.draining.Load() {
		return
	}
	h.events <- a
	<-ws.grant
}

// beginDrain releases every parked worker and stops all future parking.
// Grant channels are closed (not sent on), so every parked worker —
// and every worker that parks in the closing race window — proceeds.
func (h *harness) beginDrain() {
	h.drain.Do(func() {
		h.draining.Store(true)
		for _, ws := range h.workers {
			close(ws.grant)
		}
	})
}

// runWorker executes one thread's program, parking before each op and
// at every hook point, and injecting this thread's faults.
func (h *harness) runWorker(ws *workerState, prog []trace.Entry) {
	for i, e := range prog {
		ws.yieldIdx = 0
		ws.fc, ws.fault = nil, nil
		if f := h.faults[faultKey{ws.id, i}]; f != nil {
			ws.fault = f
			ws.fc = newFaultCtx(f.Kind)
		}
		h.maybeFire(ws) // Yield==0 means "context already expired at op start"
		h.park(ws, arrival{w: ws.id, kind: parkOpStart, op: e.Op})
		ctx := bgCtx
		if ws.fc != nil {
			ctx = ws.fc
		}
		ret := fstest.ApplyFS(ctx, h.subject, e.Op, e.Args)
		if ws.fault != nil && ws.fault.Kind == FaultTransient && isCtxErr(ret.Err) {
			// retryfs discipline: a transient cancellation is retried once
			// on a fresh context; the retry is its own scheduled op.
			ws.fc, ws.fault = nil, nil
			h.park(ws, arrival{w: ws.id, kind: parkOpStart, op: e.Op})
			fstest.ApplyFS(bgCtx, h.subject, e.Op, e.Args)
		}
	}
	h.events <- arrival{w: ws.id, done: true}
}

// blocked predicts whether granting this parked worker would block it
// inside atomfs (deadlocking the serialized run).
func blocked(a arrival, owner map[spec.Inum]int, seqOwner map[int]int) bool {
	switch a.kind {
	case parkLockAttempt:
		_, held := owner[a.ino]
		return held
	case parkSeqAttempt:
		_, open := seqOwner[a.vol]
		return open
	case parkFastSnap:
		// ReadRetries spins while the write section is open; granting a
		// snapshot mid-section would hang the single-runner schedule.
		_, open := seqOwner[a.vol]
		return open
	}
	return false
}

// decider serves schedule decisions: scripted bytes first, then the
// extension PRNG; everything consumed is recorded in out.
type decider struct {
	in  []byte
	pos int
	rng *rand.Rand
	out []byte
}

func (d *decider) next(n int) int {
	if n <= 1 {
		return 0 // no byte consumed: unforced steps don't burn schedule
	}
	var b byte
	if d.pos < len(d.in) {
		b = d.in[d.pos]
		d.pos++
	} else {
		b = byte(d.rng.Intn(256))
	}
	d.out = append(d.out, b)
	return int(b) % n
}

// schedule is the single-runner loop: grant exactly when every live
// worker is parked, track lock/seqlock ownership for blocking
// prediction, collect coverage, and drain early on the first monitor
// violation or predicted deadlock.
func (h *harness) schedule(d *decider, res *RunResult, stall time.Duration) {
	parked := make(map[int]arrival)
	owner := make(map[spec.Inum]int)
	lastIno := make([]spec.Inum, len(h.workers))
	seqOwner := make(map[int]int) // volume -> worker holding its write section
	alive := len(h.workers)
	stopped := false
	timer := time.NewTimer(stall)
	defer timer.Stop()
	for alive > 0 {
		if !stopped && len(parked) == alive {
			var runnable []int
			for w := range parked {
				if !blocked(parked[w], owner, seqOwner) {
					runnable = append(runnable, w)
				}
			}
			sort.Ints(runnable)
			if len(runnable) == 0 {
				res.Deadlocked = true
				var ws []int
				for w := range parked {
					ws = append(ws, w)
				}
				sort.Ints(ws)
				var b strings.Builder
				for _, w := range ws {
					a := parked[w]
					fmt.Fprintf(&b, "w%d %s parked kind=%d point=%d ino=%d; ", w, a.op, a.kind, a.point, a.ino)
				}
				fmt.Fprintf(&b, "owner=%v seqOwner=%v", owner, seqOwner)
				res.DeadlockInfo = b.String()
				h.beginDrain()
				stopped = true
				continue
			}
			w := runnable[d.next(len(runnable))]
			a := parked[w]
			delete(parked, w)
			// Grant-side ownership: the worker will complete the acquire
			// before it parks again, so claim it now.
			switch a.kind {
			case parkLockAttempt:
				owner[a.ino] = w
			case parkSeqAttempt:
				seqOwner[a.vol] = w
			}
			h.current = h.workers[w]
			res.Grants++
			h.workers[w].grant <- struct{}{}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(stall)
		select {
		case a := <-h.events:
			if a.done {
				alive--
				continue
			}
			if stopped {
				continue // late arrival from the drain race window
			}
			// Arrival-side tracking: releases clear ownership; HookLocked
			// (which fires after the acquire) confirms it. HookFastLock
			// fires BEFORE its acquire, so it must not claim ownership
			// here — the worker would be predicted blocked on its own
			// attempt; its claim happens at grant time like any attempt.
			switch a.point {
			case atomfs.HookLocked:
				owner[a.ino] = a.w
				h.cov(covPair | uint64(lastIno[a.w]&0xfff)<<20 | uint64(a.ino&0xfff)<<8 | uint64(a.op))
				lastIno[a.w] = a.ino
			case atomfs.HookFastLock:
				h.cov(covPair | uint64(lastIno[a.w]&0xfff)<<20 | uint64(a.ino&0xfff)<<8 | uint64(a.op))
				lastIno[a.w] = a.ino
			case atomfs.HookUnlocked, atomfs.HookFastUnlock:
				delete(owner, a.ino)
			case atomfs.HookSeqRelease:
				delete(seqOwner, a.vol)
			}
			if a.kind == parkOpStart {
				res.Ops++
				lastIno[a.w] = 0
			} else {
				h.cov(covYield | uint64(a.point)<<8 | uint64(a.op))
			}
			parked[a.w] = a
			if h.violated.Load() {
				h.beginDrain()
				stopped = true
			}
		case <-timer.C:
			if stopped {
				res.HarnessErr = fmt.Errorf("schedfuzz: drain stalled with %d workers alive", alive)
				return
			}
			res.HarnessErr = fmt.Errorf("schedfuzz: stalled (no event in %v): %d parked of %d alive, %d grants",
				stall, len(parked), alive, res.Grants)
			h.beginDrain()
			stopped = true
		}
	}
}

// Execute runs one seed under one option set and checks it three ways:
// the live monitor, the quiescent abstract/concrete comparison, and the
// lincheck oracle over the recorded history (clean small runs only).
func Execute(seed Seed, opts Options) *RunResult {
	if opts.StallTimeout <= 0 {
		opts.StallTimeout = 10 * time.Second
	}
	res := &RunResult{}
	h := &harness{
		events: make(chan arrival, len(seed.Threads)+1),
		faults: make(map[faultKey]*Fault),
		covSet: make(map[uint64]struct{}),
	}
	for i := range seed.Faults {
		f := seed.Faults[i]
		h.faults[faultKey{f.Thread, f.OpIdx}] = &f
	}

	reg := obs.NewRegistry()
	rec := history.NewRecorder()
	mon := core.NewMonitor(core.Config{
		Mode:         opts.Mode,
		Recorder:     rec,
		CheckGoodAFS: true,
		Obs:          reg,
		OnViolation:  func(core.Violation) { h.violated.Store(true) },
	})
	fsOpts := []atomfs.Option{
		atomfs.WithMonitor(mon),
		atomfs.WithObs(reg),
		atomfs.WithObsSampleEvery(1),
	}
	if seed.FastPath {
		fsOpts = append(fsOpts, atomfs.WithFastPath())
	}
	if seed.Prefix {
		fsOpts = append(fsOpts, atomfs.WithPrefixCache())
	}
	if opts.Unsafe {
		fsOpts = append(fsOpts, atomfs.WithUnsafeTraversal())
	}
	h.fs = atomfs.New(fsOpts...)
	h.subject = h.fs
	for _, d := range explore.SetupDirs {
		if err := h.fs.Mkdir(bgCtx, d); err != nil {
			res.HarnessErr = fmt.Errorf("setup %s: %w", d, err)
			return res
		}
	}
	for _, f := range explore.SetupFiles {
		if err := h.fs.Mknod(bgCtx, f); err != nil {
			res.HarnessErr = fmt.Errorf("setup %s: %w", f, err)
			return res
		}
	}
	pre := mon.AbstractState()
	cut := rec.Len()

	h.fs.SetHook(h.hookFor(0))
	var wg sync.WaitGroup
	for i := range seed.Threads {
		ws := &workerState{id: i, grant: make(chan struct{})}
		h.workers = append(h.workers, ws)
	}
	for i, prog := range seed.Threads {
		wg.Add(1)
		go func(ws *workerState, prog []trace.Entry) {
			defer wg.Done()
			h.runWorker(ws, prog)
		}(h.workers[i], prog)
	}

	d := &decider{in: seed.Sched, rng: rand.New(rand.NewSource(opts.RNG))}
	h.schedule(d, res, opts.StallTimeout)
	wg.Wait()
	h.fs.SetHook(nil)

	res.Sched = d.out
	res.Violations = mon.Violations()
	if len(res.Violations) == 0 && !res.Deadlocked && res.HarnessErr == nil {
		res.QuiesceErr = mon.Quiesce()
		res.Violations = mon.Violations() // quiesce can record rollback violations
		if res.QuiesceErr == nil && len(res.Violations) == 0 && res.Ops > 0 && res.Ops <= lincheck.MaxOps {
			evs := rec.Events()
			if cut <= len(evs) {
				if _, err := lincheck.Oracle(pre, evs[cut:]); err != nil {
					res.OracleErr = err
				}
			}
		}
	}
	res.Counterexample = mon.Counterexample()
	res.Stats = mon.Stats()

	// Coverage from the observability layer: the event kinds the issue
	// calls out as interesting (helping, rollbacks, refused aborts,
	// fast-path fallbacks) with log2-bucketed counts so "more helping"
	// stays interesting a few times, not forever.
	kindCnt := make(map[obs.EventKind]int)
	for _, e := range reg.FlightRecorder().Snapshot() {
		switch e.Kind {
		case obs.EvHelp, obs.EvRollback, obs.EvAbort, obs.EvAbortRefused, obs.EvFastFallback,
			obs.EvPrefixHit, obs.EvPrefixFallback, obs.EvPrefixInval:
			kindCnt[e.Kind]++
		}
	}
	for k, n := range kindCnt {
		b := 0
		for n > 1 {
			n >>= 1
			b++
		}
		h.cov(covEvent | uint64(k)<<8 | uint64(b))
	}

	res.Cov = make([]uint64, 0, len(h.covSet))
	for k := range h.covSet {
		res.Cov = append(res.Cov, k)
	}
	sort.Slice(res.Cov, func(i, j int) bool { return res.Cov[i] < res.Cov[j] })
	return res
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
