package schedfuzz

// Cross-volume mode: the same deterministic scheduler driving a
// two-volume namespace (internal/mount) instead of a single FS, so the
// two-phase cross-volume rename protocol — including its abort path —
// can be fuzzed and replayed bit-identically. Both volumes are monitored
// independently; the correctness oracle for the composed namespace is
// the black-box linearizability checker over a namespace-level history
// (per-volume histories do not compose across a cross record: an aborted
// detach linearizes as a failure its own Aop would not produce, and a
// helped detach's claimed order references the other volume's commit).
//
// Seeds for cross mode obey one structural rule the generator and the
// curated repros maintain: at most one thread issues cross-volume
// renames. The namespace serializes cross renames under one mutex the
// scheduler cannot see, so a second cross thread parked mid-protocol
// would block a granted one outside any yield point and stall the run.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/atomfs"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/mount"
	"repro/internal/spec"
	"repro/internal/trace"
)

// CrossMount is where cross mode grafts the second volume.
const CrossMount = "/m"

// Cross-mode setup tree: /a, /a/b and their files live in the root
// volume; /m/d and its files live in the mounted one. /m/d starts
// nonempty so a directory rename onto it deterministically exercises
// the two-phase abort (ENOTEMPTY at the destination).
var (
	CrossSetupDirs  = []string{"/a", "/a/b", CrossMount + "/d"}
	CrossSetupFiles = []string{"/a/f0", "/a/b/f0", CrossMount + "/f0", CrossMount + "/d/g0"}
)

// ExecuteCross runs one seed against a two-volume namespace under the
// serialized scheduler and checks it three ways: both volumes' live
// monitors, both quiescent comparisons, and the black-box lincheck
// search over the namespace-level history (clean small runs only).
func ExecuteCross(seed Seed, opts Options) *RunResult {
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

	var mons [2]*core.Monitor
	var vols [2]*atomfs.FS
	for v := range vols {
		mons[v] = core.NewMonitor(core.Config{
			Mode:         opts.Mode,
			CheckGoodAFS: true,
			OnViolation:  func(core.Violation) { h.violated.Store(true) },
		})
		fsOpts := []atomfs.Option{atomfs.WithMonitor(mons[v])}
		if seed.FastPath {
			fsOpts = append(fsOpts, atomfs.WithFastPath())
		}
		if seed.Prefix {
			fsOpts = append(fsOpts, atomfs.WithPrefixCache())
		}
		if opts.Unsafe {
			fsOpts = append(fsOpts, atomfs.WithUnsafeTraversal())
		}
		vols[v] = atomfs.New(fsOpts...)
	}

	ns := mount.New(vols[0])
	rec := history.NewRecorder()
	w := history.WrapFS(ns, rec)
	// The covering directory is created through the recording wrapper
	// BEFORE the mount exists, so the namespace-level history replays
	// from an empty tree; Mount then finds it already present.
	if err := w.Mkdir(bgCtx, CrossMount); err != nil {
		res.HarnessErr = fmt.Errorf("setup %s: %w", CrossMount, err)
		return res
	}
	if err := ns.Mount(bgCtx, CrossMount, vols[1]); err != nil {
		res.HarnessErr = fmt.Errorf("mount %s: %w", CrossMount, err)
		return res
	}
	for _, d := range CrossSetupDirs {
		if err := w.Mkdir(bgCtx, d); err != nil {
			res.HarnessErr = fmt.Errorf("setup %s: %w", d, err)
			return res
		}
	}
	for _, f := range CrossSetupFiles {
		if err := w.Mknod(bgCtx, f); err != nil {
			res.HarnessErr = fmt.Errorf("setup %s: %w", f, err)
			return res
		}
	}

	h.subject = w
	vols[0].SetHook(h.hookFor(0))
	vols[1].SetHook(h.hookFor(1))
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
	vols[0].SetHook(nil)
	vols[1].SetHook(nil)

	res.Sched = d.out
	for _, mon := range mons {
		res.Violations = append(res.Violations, mon.Violations()...)
	}
	if len(res.Violations) == 0 && !res.Deadlocked && res.HarnessErr == nil {
		for _, mon := range mons {
			if err := mon.Quiesce(); err != nil && res.QuiesceErr == nil {
				res.QuiesceErr = err
			}
		}
		res.Violations = nil
		for _, mon := range mons {
			res.Violations = append(res.Violations, mon.Violations()...)
		}
		if res.QuiesceErr == nil && len(res.Violations) == 0 && res.Ops > 0 {
			res.OracleErr = checkCrossHistory(rec.Events())
		}
	}
	res.Stats = mons[0].Stats()
	res.VolStats = []core.Stats{mons[0].Stats(), mons[1].Stats()}

	res.Cov = make([]uint64, 0, len(h.covSet))
	for k := range h.covSet {
		res.Cov = append(res.Cov, k)
	}
	sort.Slice(res.Cov, func(i, j int) bool { return res.Cov[i] < res.Cov[j] })
	return res
}

// checkCrossHistory runs the black-box Wing-&-Gong search over the
// namespace-level history. Cleanly-cancelled operations (context-error
// returns) are dropped first, the same way the oracle drops never-
// linearized aborts: sequentially they never happened, and the per-volume
// monitors separately enforce that a cancelled op either fully aborted or
// surfaced its linearized result. Oversized histories are skipped, not
// failed.
func checkCrossHistory(events []history.Event) error {
	ctxTid := map[uint64]bool{}
	for _, e := range events {
		if e.Kind == history.EvReturn &&
			(errors.Is(e.Ret.Err, context.Canceled) || errors.Is(e.Ret.Err, context.DeadlineExceeded)) {
			ctxTid[e.Tid] = true
		}
	}
	kept := make([]history.Event, 0, len(events))
	ops := 0
	for _, e := range events {
		if ctxTid[e.Tid] {
			continue
		}
		if e.Kind == history.EvInvoke {
			ops++
		}
		kept = append(kept, e)
	}
	if ops == 0 || ops > lincheck.MaxOps {
		return nil
	}
	lres, err := lincheck.Check(nil, kept)
	if err != nil {
		return fmt.Errorf("cross history: %w", err)
	}
	if !lres.Linearizable {
		return fmt.Errorf("cross history of %d ops is not linearizable", ops)
	}
	return nil
}

// RandomCrossSeed generates a cross-mode seed: thread 0 draws from the
// cross-rename mix (the only thread allowed to), the others from a
// same-volume mix split across both sides of the mount.
func RandomCrossSeed(r *rand.Rand, threads, opsPer int, fastPath, prefix bool, faultProb float64) Seed {
	s := Seed{FastPath: fastPath, Prefix: prefix}
	for t := 0; t < threads; t++ {
		var prog []trace.Entry
		for i := 0; i < opsPer; i++ {
			var op spec.Op
			var args spec.Args
			if t == 0 {
				op, args = crossOp(r)
			} else {
				op, args = sideOp(r)
			}
			prog = append(prog, trace.Entry{Op: op, Args: args})
		}
		s.Threads = append(s.Threads, prog)
		if r.Float64() < faultProb {
			s.Faults = append(s.Faults, Fault{
				Thread: t,
				OpIdx:  r.Intn(opsPer),
				Yield:  r.Intn(maxFaultYield),
				Kind:   FaultKind(1 + r.Intn(3)),
			})
		}
	}
	return s
}

// crossOp generates thread 0's mix: renames that cross the mount in both
// directions — fresh destinations (commit path), occupied destinations
// (abort path) — plus stats of the contended subtrees.
func crossOp(r *rand.Rand) (spec.Op, spec.Args) {
	left := []string{"/a/b", "/a/f0", "/a/b/f0"}
	right := []string{CrossMount + "/d", CrossMount + "/f0", CrossMount + "/d/g0"}
	switch r.Intn(6) {
	case 0: // left -> right, fresh name: commit path
		return spec.OpRename, spec.Args{
			Path:  left[r.Intn(len(left))],
			Path2: fmt.Sprintf("%s/x%d", CrossMount, r.Intn(2)),
		}
	case 1: // right -> left, fresh name: commit path
		return spec.OpRename, spec.Args{
			Path:  right[r.Intn(len(right))],
			Path2: fmt.Sprintf("/a/y%d", r.Intn(2)),
		}
	case 2: // dir onto the nonempty /m/d: deterministic abort (ENOTEMPTY)
		return spec.OpRename, spec.Args{Path: "/a/b", Path2: CrossMount + "/d"}
	case 3: // onto an existing victim of matching kind: victim replacement
		return spec.OpRename, spec.Args{Path: "/a/f0", Path2: CrossMount + "/f0"}
	default:
		all := append(append([]string{}, left...), right...)
		return spec.OpStat, spec.Args{Path: all[r.Intn(len(all))]}
	}
}

// sideOp generates same-volume traffic for the non-cross threads: ops
// inside the source subtree (to contend with the quiescing DFS), on the
// destination side (to contend with the attach), and same-volume renames
// (to exercise helping around a held spine). Never touches the mount
// point itself and never crosses it.
func sideOp(r *rand.Rand) (spec.Op, spec.Args) {
	if r.Intn(2) == 0 { // root-volume side
		deep := []string{"/a/f0", "/a/b/f0", "/a/b/n0", "/a/n1"}
		switch r.Intn(6) {
		case 0:
			return spec.OpRename, spec.Args{Path: "/a/b", Path2: "/a/e"}
		case 1:
			return spec.OpMknod, spec.Args{Path: deep[r.Intn(len(deep))]}
		case 2:
			return spec.OpUnlink, spec.Args{Path: deep[r.Intn(len(deep))]}
		default:
			return spec.OpStat, spec.Args{Path: deep[r.Intn(len(deep))]}
		}
	}
	deep := []string{CrossMount + "/d/g0", CrossMount + "/f0", CrossMount + "/d/n0"}
	switch r.Intn(6) {
	case 0:
		return spec.OpRename, spec.Args{Path: CrossMount + "/d", Path2: CrossMount + "/e"}
	case 1:
		return spec.OpMknod, spec.Args{Path: deep[r.Intn(len(deep))]}
	case 2:
		return spec.OpUnlink, spec.Args{Path: deep[r.Intn(len(deep))]}
	default:
		return spec.OpStat, spec.Args{Path: deep[r.Intn(len(deep))]}
	}
}
