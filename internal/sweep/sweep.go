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

// countPoints runs B alone and counts its hook events.
func countPoints(p Pair) (int, error) {
	fs := atomfs.New()
	if err := buildTree(fs, p.Setup); err != nil {
		return 0, err
	}
	count := 0
	fs.SetHook(func(ev atomfs.HookEvent) {
		if ev.Op == p.B.Op {
			count++
		}
	})
	_ = p.B.Run(fs) // B's own error is schedule-dependent, not a failure
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

	parked := make(chan struct{})
	release := make(chan struct{})
	held := newHoldings()
	// A and B may share an op kind (the rename+rename pair), so the
	// counter needs a lock; parking blocks outside it.
	var hookMu sync.Mutex
	seen := 0
	fs.SetHook(func(ev atomfs.HookEvent) {
		held.observe(ev)
		if ev.Op != p.B.Op {
			return
		}
		hookMu.Lock()
		seen++
		shouldPark := seen == k
		hookMu.Unlock()
		if shouldPark {
			close(parked)
			<-release
		}
	})

	bDone := make(chan error, 1)
	go func() {
		err := p.B.Run(fs)
		close(held.bFinished)
		bDone <- err
	}()
	select {
	case <-parked:
	case err := <-bDone:
		// B finished before reaching point k (its path through the hooks
		// differs under monitoring?) — treat as a harness error.
		return false, false, fmt.Errorf("B finished (err=%v) before point %d", err, k)
	case <-time.After(10 * time.Second):
		return false, false, fmt.Errorf("B never reached point %d", k)
	}

	aDone := make(chan error, 1)
	go func() { aDone <- p.A.Run(fs) }()
	overlapped := true
	select {
	case <-aDone:
	case <-held.blocked:
		// A is about to wait on a lock parked B holds; no overlap is
		// possible at this point. A stays in its hook while B is released
		// and runs to completion, so the schedule is B then A.
		overlapped = false
	case <-time.After(10 * time.Second):
		close(release)
		return false, false, fmt.Errorf("point %d: A neither finished nor waited on B", k)
	}
	close(release)
	select {
	case <-bDone:
	case <-time.After(10 * time.Second):
		return overlapped, false, fmt.Errorf("point %d: released B never finished", k)
	}
	if !overlapped {
		<-aDone
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
	helped := false
	for _, e := range events {
		if e.Kind == history.EvLin && e.Helper != e.Tid {
			helped = true
		}
	}
	return overlapped, helped, nil
}

// holdings follows, from hook events alone, what the interrupted
// operation B holds — inode locks, coupled or fast-path, and the
// seqlock write section. When the interrupting operation announces an
// acquisition of one of them, it closes blocked and holds that operation
// in its hook until B has finished (bFinished). B runs alone until it
// parks, so the first event names its tid.
type holdings struct {
	mu        sync.Mutex
	b         uint64 // B's tid; 0 until its first event
	inodes    map[spec.Inum]int
	seq       bool
	pending   atomfs.HookEvent // B's announced acquisition, held from its next event
	blocked   chan struct{}
	closed    bool
	bFinished chan struct{}
}

func newHoldings() *holdings {
	return &holdings{inodes: map[spec.Inum]int{}, blocked: make(chan struct{}), bFinished: make(chan struct{})}
}

func (h *holdings) observe(ev atomfs.HookEvent) {
	h.mu.Lock()
	if h.b == 0 {
		h.b = ev.Tid
	}
	if ev.Tid != h.b {
		wait := false
		switch ev.Point {
		case atomfs.HookLockAttempt, atomfs.HookFastLock:
			wait = h.inodes[ev.Ino] > 0
		case atomfs.HookSeqAttempt:
			wait = h.seq
		}
		if wait && !h.closed {
			h.closed = true
			close(h.blocked)
		}
		h.mu.Unlock()
		if wait {
			<-h.bFinished
		}
		return
	}
	defer h.mu.Unlock()
	// An announced acquisition has completed once B fires again.
	switch h.pending.Point {
	case atomfs.HookFastLock:
		h.inodes[h.pending.Ino]++
	case atomfs.HookSeqAttempt:
		h.seq = true
	}
	h.pending = atomfs.HookEvent{}
	switch ev.Point {
	case atomfs.HookLocked:
		h.inodes[ev.Ino]++
	case atomfs.HookUnlocked, atomfs.HookFastUnlock:
		if h.inodes[ev.Ino]--; h.inodes[ev.Ino] <= 0 {
			delete(h.inodes, ev.Ino)
		}
	case atomfs.HookSeqRelease:
		h.seq = false
	case atomfs.HookFastLock, atomfs.HookSeqAttempt:
		h.pending = ev
	}
}

// Run sweeps one pair over every instrumentation point.
func Run(p Pair) Outcome {
	out := Outcome{Pair: p}
	points, err := countPoints(p)
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
