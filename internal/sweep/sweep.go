// Package sweep performs systematic concurrency testing of the monitored
// AtomFS with a preemption bound of one (in the style of CHESS): for a
// pair of operations (A, B), it first counts every instrumentation point
// B passes through when run alone, then replays one schedule per point —
// B runs until that exact point, parks there, A runs to completion, B
// resumes. Every single-preemption interleaving of the pair is therefore
// covered exhaustively, and each schedule is verified three ways (monitor
// invariants, quiescent abstraction relation, offline linearizability).
//
// Unlike the randomized explorer (internal/explore), a sweep's coverage
// statement is exact: "operation B was interrupted by a full run of A at
// every one of its N instrumentation points". The rename-vs-everything
// pair catalogue reproduces the §3.2 combination matrix as a verification
// (rather than detection) experiment.
package sweep

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/atomfs"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/spec"
)

// bgCtx is this driver package's root context: the study/exploration
// harness is an execution root (like main), so the background context is
// its to mint. ctxlint:allow
var bgCtx = context.Background()

// OpSpec names one operation of a pair.
type OpSpec struct {
	Name string
	Run  func(fs *atomfs.FS) error
	// Op is the spec-level kind used to match hook events for the parked
	// operation.
	Op spec.Op
}

// Pair is a swept combination: B is the interrupted operation, A the
// interrupting one. Setup builds the initial tree.
type Pair struct {
	Name  string
	Setup []string // directories/files: paths ending in "/" are dirs
	B     OpSpec
	A     OpSpec
}

// Outcome reports one pair's sweep.
type Outcome struct {
	Pair       Pair
	Points     int // instrumentation points B passes through alone
	Schedules  int // schedules executed (== Points)
	Overlapped int // schedules where A completed while B was parked
	Coalesced  int // schedules where A had to wait for B (no overlap possible)
	Helped     int // schedules in which some operation took an external LP
	Failures   []string
}

func (o Outcome) String() string {
	return fmt.Sprintf("%s: %d schedules (%d overlapped, %d coalesced, %d with helping), %d failures",
		o.Pair.Name, o.Schedules, o.Overlapped, o.Coalesced, o.Helped, len(o.Failures))
}

// buildTree applies the pair's setup to a fresh FS.
func buildTree(fs *atomfs.FS, setup []string) error {
	for _, p := range setup {
		if p[len(p)-1] == '/' {
			if err := fs.Mkdir(bgCtx, p[:len(p)-1]); err != nil {
				return err
			}
		} else if err := fs.Mknod(bgCtx, p); err != nil {
			return err
		}
	}
	return nil
}

// countPoints runs op alone on a fresh tree and counts its hook events.
func countPoints(setup []string, op OpSpec) (int, error) {
	fs := atomfs.New()
	if err := buildTree(fs, setup); err != nil {
		return 0, err
	}
	count := 0
	fs.SetHook(func(ev atomfs.HookEvent) {
		if ev.Op == op.Op {
			count++
		}
	})
	_ = op.Run(fs) // the op's own error is schedule-dependent, not a failure
	return count, nil
}

// runSchedule executes one schedule: B parks at its k'th instrumentation
// point, A runs, B resumes. Returns (overlapped, helped, error).
func runSchedule(p Pair, k int) (bool, bool, error) {
	rec := history.NewRecorder()
	mon := core.NewMonitor(core.Config{Recorder: rec, CheckGoodAFS: true})
	fs := atomfs.New(atomfs.WithMonitor(mon))
	if err := buildTree(fs, p.Setup); err != nil {
		return false, false, err
	}
	pre := mon.AbstractState()
	cut := rec.Len()

	held := newHoldings()
	defer held.releaseAll()
	fs.SetHook(func(ev atomfs.HookEvent) {
		st, park := held.observe(ev)
		if park {
			<-st.release
		}
		// A waiting on a lock parked B holds stays in its hook until B
		// has finished, so a coalesced schedule is B then A.
		if holder := held.blocker(st); holder != nil {
			<-holder.done
		}
	})

	b := held.start(fs, p.B, k)
	if err := held.await(func() bool { return b.parked || b.finished }); err != nil {
		return false, false, fmt.Errorf("B never reached point %d: %w", k, err)
	}
	if !b.parked {
		// B's path through the hooks differs under monitoring?
		return false, false, fmt.Errorf("B finished (err=%v) before point %d", b.err, k)
	}
	a := held.start(fs, p.A, 0)
	if err := held.await(func() bool { return held.settledLocked(a) }); err != nil {
		return false, false, fmt.Errorf("point %d: A neither finished nor waited on B: %w", k, err)
	}
	// Not finished means A is about to wait on a lock parked B holds: no
	// overlap is possible at this point.
	overlapped := a.finished
	held.release(b)
	if err := held.await(held.allFinishedLocked); err != nil {
		return overlapped, false, fmt.Errorf("point %d: released B never finished: %w", k, err)
	}
	fs.SetHook(nil)

	if vs := mon.Violations(); len(vs) > 0 {
		return overlapped, false, fmt.Errorf("point %d: %v", k, vs)
	}
	if err := mon.Quiesce(); err != nil {
		return overlapped, false, fmt.Errorf("point %d: %w", k, err)
	}
	events := rec.Events()[cut:]
	res, err := lincheck.Check(pre, events)
	if err != nil {
		return overlapped, false, fmt.Errorf("point %d: %w", k, err)
	}
	if !res.Linearizable {
		return overlapped, false, fmt.Errorf("point %d: history not linearizable", k)
	}
	return overlapped, externalLPs(events) > 0, nil
}

// externalLPs counts the operations in events that a helper linearized.
func externalLPs(events []history.Event) int {
	n := 0
	for _, e := range events {
		if e.Kind == history.EvLin && e.Helper != e.Tid {
			n++
		}
	}
	return n
}

// holdings follows the swept operations from hook events alone: what
// each holds (inode locks, coupled or fast-path, and the seqlock write
// section), and whether it is parked in its hook, waiting on a lock
// another operation holds, or finished. The driver starts operations one
// at a time, each once every earlier one has settled (parked, waiting or
// finished) and so fires no events, so the first event of an unknown tid
// belongs to the operation started last. Every state change is broadcast
// on changed, so the driver decides what happened from the events
// instead of a timeout.
type holdings struct {
	mu       sync.Mutex
	ops      []*opState
	tids     map[uint64]*opState
	starting *opState // started, its tid not yet seen
	changed  chan struct{}
}

// opState is one swept operation as its hook events show it. holdings.mu
// guards every field but the two channels.
type opState struct {
	parkAt   int // own event to park at; 0 = never
	seen     int // own events so far
	parked   bool
	released bool
	finished bool
	err      error
	release  chan struct{} // closed to resume the parked operation
	done     chan struct{} // closed once the operation has returned
	inodes   map[spec.Inum]int
	seq      bool
	// last is the operation's latest event. A fast-lock or seqlock
	// acquisition it announces has completed once the operation fires
	// again; a coupled one is confirmed by HookLocked.
	last atomfs.HookEvent
}

func newHoldings() *holdings {
	return &holdings{tids: map[uint64]*opState{}, changed: make(chan struct{})}
}

func (h *holdings) notifyLocked() {
	close(h.changed)
	h.changed = make(chan struct{})
}

// start runs op on its own goroutine, parking it at its parkAt'th event.
func (h *holdings) start(fs *atomfs.FS, op OpSpec, parkAt int) *opState {
	st := &opState{parkAt: parkAt, release: make(chan struct{}), done: make(chan struct{}),
		inodes: map[spec.Inum]int{}}
	h.mu.Lock()
	h.ops = append(h.ops, st)
	h.starting = st
	h.mu.Unlock()
	go func() {
		err := op.Run(fs)
		h.mu.Lock()
		st.err, st.finished = err, true
		h.notifyLocked()
		h.mu.Unlock()
		close(st.done)
	}()
	return st
}

// observe books ev against its operation and reports whether that
// operation must park here.
func (h *holdings) observe(ev atomfs.HookEvent) (*opState, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.tids[ev.Tid]
	if st == nil {
		if h.starting == nil {
			panic(fmt.Sprintf("sweep: hook event from tid %d, which no started operation owns", ev.Tid))
		}
		st, h.starting = h.starting, nil
		h.tids[ev.Tid] = st
	}
	switch st.last.Point {
	case atomfs.HookFastLock:
		st.inodes[st.last.Ino]++
	case atomfs.HookSeqAttempt:
		st.seq = true
	}
	switch ev.Point {
	case atomfs.HookLocked:
		st.inodes[ev.Ino]++
	case atomfs.HookUnlocked, atomfs.HookFastUnlock:
		if st.inodes[ev.Ino]--; st.inodes[ev.Ino] <= 0 {
			delete(st.inodes, ev.Ino)
		}
	case atomfs.HookSeqRelease:
		st.seq = false
	}
	st.last = ev
	st.seen++
	st.parked = !st.released && st.seen == st.parkAt
	h.notifyLocked()
	return st, st.parked
}

// blocker returns the operation holding what st last announced it is
// about to acquire, or nil when st is not about to wait.
func (h *holdings) blocker(st *opState) *opState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.blockerLocked(st)
}

func (h *holdings) blockerLocked(st *opState) *opState {
	if st.finished {
		return nil
	}
	for _, o := range h.ops {
		if o == st {
			continue
		}
		switch st.last.Point {
		case atomfs.HookLockAttempt, atomfs.HookFastLock:
			if o.inodes[st.last.Ino] > 0 {
				return o
			}
		case atomfs.HookSeqAttempt:
			if o.seq {
				return o
			}
		}
	}
	return nil
}

// settledLocked reports whether st fires no further event until another
// operation moves: it is parked, waiting on a lock, or finished.
func (h *holdings) settledLocked(st *opState) bool {
	return st.parked || st.finished || h.blockerLocked(st) != nil
}

func (h *holdings) quiescentLocked() bool {
	for _, st := range h.ops {
		if !h.settledLocked(st) {
			return false
		}
	}
	return true
}

func (h *holdings) allFinishedLocked() bool {
	for _, st := range h.ops {
		if !st.finished {
			return false
		}
	}
	return true
}

// await blocks until cond, evaluated under h.mu after every state
// change, holds. Ten seconds without it is a harness error: every
// schedule settles in microseconds.
func (h *holdings) await(cond func() bool) error {
	timeout := time.After(10 * time.Second)
	for {
		h.mu.Lock()
		ok, changed := cond(), h.changed
		h.mu.Unlock()
		if ok {
			return nil
		}
		select {
		case <-changed:
		case <-timeout:
			return fmt.Errorf("no progress in 10s")
		}
	}
}

// release resumes st if it is parked and keeps it from parking later.
func (h *holdings) release(st *opState) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if st.released {
		return
	}
	st.released, st.parked = true, false
	h.notifyLocked()
	close(st.release)
}

// releaseAll resumes every operation, so that none is left parked when a
// schedule ends early.
func (h *holdings) releaseAll() {
	h.mu.Lock()
	ops := h.ops
	h.mu.Unlock()
	for _, st := range ops {
		h.release(st)
	}
}

// Run sweeps one pair over every instrumentation point.
func Run(p Pair) Outcome {
	out := Outcome{Pair: p}
	points, err := countPoints(p.Setup, p.B)
	if err != nil {
		out.Failures = append(out.Failures, err.Error())
		return out
	}
	out.Points = points
	for k := 1; k <= points; k++ {
		overlapped, helped, err := runSchedule(p, k)
		out.Schedules++
		if overlapped {
			out.Overlapped++
		} else {
			out.Coalesced++
		}
		if helped {
			out.Helped++
		}
		if err != nil {
			out.Failures = append(out.Failures, err.Error())
		}
	}
	return out
}

// Catalogue returns the rename-vs-everything pairs of the §3.2 matrix,
// each arranged so the interrupting rename breaks the interrupted
// operation's traversed path.
func Catalogue() []Pair {
	setup := []string{"/a/", "/a/b/", "/a/b/c/", "/a/b/victim", "/a/b/olddir/", "/x/"}
	renameA := OpSpec{
		Name: "rename(/a,/x/a)",
		Run:  func(fs *atomfs.FS) error { return fs.Rename(bgCtx, "/a", "/x/a") },
		Op:   spec.OpRename,
	}
	return []Pair{
		{Name: "rename+create", Setup: setup, A: renameA,
			B: OpSpec{Name: "mknod(/a/b/c/new)", Op: spec.OpMknod,
				Run: func(fs *atomfs.FS) error { return fs.Mknod(bgCtx, "/a/b/c/new") }}},
		{Name: "rename+mkdir", Setup: setup, A: renameA,
			B: OpSpec{Name: "mkdir(/a/b/c/newdir)", Op: spec.OpMkdir,
				Run: func(fs *atomfs.FS) error { return fs.Mkdir(bgCtx, "/a/b/c/newdir") }}},
		{Name: "rename+unlink", Setup: setup, A: renameA,
			B: OpSpec{Name: "unlink(/a/b/victim)", Op: spec.OpUnlink,
				Run: func(fs *atomfs.FS) error { return fs.Unlink(bgCtx, "/a/b/victim") }}},
		{Name: "rename+rmdir", Setup: setup, A: renameA,
			B: OpSpec{Name: "rmdir(/a/b/olddir)", Op: spec.OpRmdir,
				Run: func(fs *atomfs.FS) error { return fs.Rmdir(bgCtx, "/a/b/olddir") }}},
		{Name: "rename+rename", Setup: setup, A: renameA,
			B: OpSpec{Name: "rename(/a/b/victim,/a/b/moved)", Op: spec.OpRename,
				Run: func(fs *atomfs.FS) error { return fs.Rename(bgCtx, "/a/b/victim", "/a/b/moved") }}},
		{Name: "rename+stat", Setup: setup, A: renameA,
			B: OpSpec{Name: "stat(/a/b/c)", Op: spec.OpStat,
				Run: func(fs *atomfs.FS) error { _, err := fs.Stat(bgCtx, "/a/b/c"); return err }}},
		{Name: "rename+readdir", Setup: setup, A: renameA,
			B: OpSpec{Name: "readdir(/a/b)", Op: spec.OpReaddir,
				Run: func(fs *atomfs.FS) error { _, err := fs.Readdir(bgCtx, "/a/b"); return err }}},
	}
}
