package sweep

import (
	"fmt"

	"repro/internal/atomfs"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/spec"
)

// Triple is a three-operation schedule family: C parks at each of its
// points, then B parks at each of its points, then A runs to completion,
// then B and C are released (in both orders). With |B| and |C|
// instrumentation points this yields 2·|B|·|C| schedules — exhaustive
// single-preemption-per-operation coverage of the three-way interleavings
// that produce recursive helping (the Figure-4(c) shape).
type Triple struct {
	Name  string
	Setup []string
	C     OpSpec // parks first (deepest)
	B     OpSpec // parks second
	A     OpSpec // runs to completion while B and C are parked
}

// TripleOutcome reports one triple's sweep.
type TripleOutcome struct {
	Triple    Triple
	Schedules int
	Helped    int // schedules where >= 2 operations took external LPs
	Failures  []string
}

func (o TripleOutcome) String() string {
	return fmt.Sprintf("%s: %d schedules (%d with multi-helping), %d failures",
		o.Triple.Name, o.Schedules, o.Helped, len(o.Failures))
}

// runTripleSchedule executes one (j, k, releaseBFirst) schedule and
// returns how many operations a helper linearized.
func runTripleSchedule(tr Triple, j, k int, releaseBFirst bool) (int, error) {
	rec := history.NewRecorder()
	mon := core.NewMonitor(core.Config{Recorder: rec, CheckGoodAFS: true})
	fs := atomfs.New(atomfs.WithMonitor(mon))
	if err := buildTree(fs, tr.Setup); err != nil {
		return 0, err
	}
	pre := mon.AbstractState()
	cut := rec.Len()
	at := fmt.Sprintf("j=%d k=%d bFirst=%v", j, k, releaseBFirst)

	// An operation that announces a lock a parked one holds goes on into
	// the real lock and waits there exactly as long as the lock is held.
	held := newHoldings()
	defer held.releaseAll()
	fs.SetHook(func(ev atomfs.HookEvent) {
		if st, park := held.observe(ev); park {
			<-st.release
		}
	})

	c := held.start(fs, tr.C, k)
	if err := held.await(func() bool { return c.parked || c.finished }); err != nil || !c.parked {
		return 0, fmt.Errorf("%s: C never parked (err=%v)", at, err)
	}
	// B parks, or waits on a lock parked C holds (a coalesced B still
	// yields a valid schedule), or finishes.
	b := held.start(fs, tr.B, j)
	if err := held.await(func() bool { return held.settledLocked(b) }); err != nil {
		return 0, fmt.Errorf("%s: B neither parked, waited nor finished: %w", at, err)
	}
	// A runs to completion or until it waits on a parked operation.
	a := held.start(fs, tr.A, 0)
	if err := held.await(func() bool { return held.settledLocked(a) }); err != nil {
		return 0, fmt.Errorf("%s: A neither finished nor waited: %w", at, err)
	}

	// The first released operation, and whatever it unblocks, runs until
	// everything has finished or waits on the second.
	first, second := b, c
	if !releaseBFirst {
		first, second = c, b
	}
	held.release(first)
	if err := held.await(held.quiescentLocked); err != nil {
		return 0, fmt.Errorf("%s: released ops never settled: %w", at, err)
	}
	held.release(second)
	if err := held.await(held.allFinishedLocked); err != nil {
		return 0, fmt.Errorf("%s: released ops never finished: %w", at, err)
	}
	fs.SetHook(nil)

	if vs := mon.Violations(); len(vs) > 0 {
		return 0, fmt.Errorf("%s: %v", at, vs)
	}
	if err := mon.Quiesce(); err != nil {
		return 0, fmt.Errorf("%s: %w", at, err)
	}
	events := rec.Events()[cut:]
	res, err := lincheck.Check(pre, events)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", at, err)
	}
	if !res.Linearizable {
		return 0, fmt.Errorf("%s: history not linearizable", at)
	}
	return externalLPs(events), nil
}

// RunTriple sweeps every (j, k, order) schedule of the triple.
func RunTriple(tr Triple) TripleOutcome {
	out := TripleOutcome{Triple: tr}
	bPoints, err := countPoints(tr.Setup, tr.B)
	if err != nil {
		out.Failures = append(out.Failures, err.Error())
		return out
	}
	cPoints, err := countPoints(tr.Setup, tr.C)
	if err != nil {
		out.Failures = append(out.Failures, err.Error())
		return out
	}
	for k := 1; k <= cPoints; k++ {
		for j := 1; j <= bPoints; j++ {
			for _, bFirst := range []bool{true, false} {
				helped, err := runTripleSchedule(tr, j, k, bFirst)
				out.Schedules++
				if helped >= 2 {
					out.Helped++
				}
				if err != nil {
					out.Failures = append(out.Failures, err.Error())
				}
			}
		}
	}
	return out
}

// Fig4cTriple is the recursive-helping configuration: a stat under t2's
// rename source, t2's rename into t1's rename source subtree, and t1's
// rename as the committing helper.
func Fig4cTriple() Triple {
	setup := []string{"/a/", "/a/e/", "/a/e/f", "/b/", "/b/c/", "/b/c/d/"}
	return Triple{
		Name:  "fig4c-family",
		Setup: setup,
		C: OpSpec{Name: "stat(/a/e/f)", Op: spec.OpStat,
			Run: func(fs *atomfs.FS) error { _, err := fs.Stat(bgCtx, "/a/e/f"); return err }},
		B: OpSpec{Name: "rename(/a/e,/b/c/d/e)", Op: spec.OpRename,
			Run: func(fs *atomfs.FS) error { return fs.Rename(bgCtx, "/a/e", "/b/c/d/e") }},
		A: OpSpec{Name: "rename(/b/c,/b/g)", Op: spec.OpRename,
			Run: func(fs *atomfs.FS) error { return fs.Rename(bgCtx, "/b/c", "/b/g") }},
	}
}
