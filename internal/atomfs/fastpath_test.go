package atomfs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/fstest"
	"repro/internal/history"
	"repro/internal/lincheck"
)

func TestFastPathName(t *testing.T) {
	if got := New(WithFastPath()).Name(); got != "atomfs-fastpath" {
		t.Fatalf("Name() = %q, want atomfs-fastpath", got)
	}
}

func TestFastPathBigLockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithBigLock+WithFastPath did not panic")
		}
	}()
	New(WithBigLock(), WithFastPath())
}

func TestFastPathFunctional(t *testing.T) {
	fstest.Functional(t, New(WithFastPath()))
}

// TestFastPathFunctionalMonitored: the full functional suite with the
// monitor attached; every fast-path read linearizes at its validation
// point, and the refinement check at End compares its concrete result to
// the abstract one fixed there.
func TestFastPathFunctionalMonitored(t *testing.T) {
	mon := core.NewMonitor(core.Config{CheckGoodAFS: true})
	fs := New(WithFastPath(), WithMonitor(mon))
	fstest.Functional(t, fs)
	requireClean(t, mon)
	if err := mon.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if mon.Stats().FastReads == 0 {
		t.Fatal("no read linearized at a validation point")
	}
}

func TestFastPathDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fstest.Differential(t, New(WithFastPath()), seed, 600)
		})
	}
}

func TestFastPathDifferentialMonitored(t *testing.T) {
	mon := core.NewMonitor(core.Config{CheckGoodAFS: true})
	fs := New(WithFastPath(), WithMonitor(mon))
	fstest.Differential(t, fs, 42, 800)
	requireClean(t, mon)
	if err := mon.Quiesce(); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathHits: without concurrent mutators every read completes on
// the fast path.
func TestFastPathHits(t *testing.T) {
	fs := New(WithFastPath())
	if err := fs.Mkdir(tctx, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mknod(tctx, "/a/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(tctx, "/a/f", 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(tctx, "/a/f"); err != nil {
		t.Fatal(err)
	}
	if data, err := fsapi.ReadAll(tctx, fs, "/a/f", 0, 5); err != nil || string(data) != "hello" {
		t.Fatalf("Read = %q, %v", data, err)
	}
	if names, err := fs.Readdir(tctx, "/a"); err != nil || len(names) != 1 || names[0] != "f" {
		t.Fatalf("Readdir = %v, %v", names, err)
	}
	// Errors linearize on the fast path too.
	if _, err := fs.Stat(tctx, "/a/missing"); !errors.Is(err, fserr.ErrNotExist) {
		t.Fatalf("Stat missing = %v", err)
	}
	hits, falls := fs.FastPathStats()
	if hits != 4 || falls != 0 {
		t.Fatalf("FastPathStats = %d hits, %d fallbacks; want 4, 0", hits, falls)
	}
}

// TestFastPathForcedFallback parks a fast-path walk at HookFastWalk,
// commits a namespace mutation inside the window, and releases the walk:
// validation must fail, the fallback counter must tick, and the slow path
// must produce the post-mutation result.
func TestFastPathForcedFallback(t *testing.T) {
	fs := New(WithFastPath())
	if err := fs.Mkdir(tctx, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mknod(tctx, "/a/f"); err != nil {
		t.Fatal(err)
	}

	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	fs.SetHook(func(ev HookEvent) {
		if ev.Point == HookFastWalk {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
	})
	go func() {
		<-parked
		// An unrelated mutation: the stat's target still exists, so the
		// fallback's slow path must succeed — proving the fast path
		// discarded a perfectly good walk only because it could no longer
		// prove it atomic, and recovered.
		if err := fs.Mkdir(tctx, "/z"); err != nil {
			t.Errorf("mkdir /z: %v", err)
		}
		close(release)
	}()
	info, err := fs.Stat(tctx, "/a/f")
	fs.SetHook(nil)
	if err != nil {
		t.Fatalf("Stat after fallback: %v", err)
	}
	if info.Kind.String() != "file" {
		t.Fatalf("Stat kind = %v", info.Kind)
	}
	hits, falls := fs.FastPathStats()
	if falls != 1 {
		t.Fatalf("fallbacks = %d, want 1", falls)
	}
	if hits != 0 {
		t.Fatalf("hits = %d, want 0", hits)
	}
}

// TestFastPathForcedFallbackConflicting is the same window with a
// conflicting mutation: the rename moves the stat's whole subtree, so the
// slow-path retry must observe the post-rename tree.
func TestFastPathForcedFallbackConflicting(t *testing.T) {
	fs := New(WithFastPath())
	if err := fs.Mkdir(tctx, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mknod(tctx, "/a/f"); err != nil {
		t.Fatal(err)
	}
	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	fs.SetHook(func(ev HookEvent) {
		if ev.Point == HookFastWalk {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
	})
	go func() {
		<-parked
		if err := fs.Rename(tctx, "/a", "/b"); err != nil {
			t.Errorf("rename: %v", err)
		}
		close(release)
	}()
	_, err := fs.Stat(tctx, "/a/f")
	fs.SetHook(nil)
	if !errors.Is(err, fserr.ErrNotExist) {
		t.Fatalf("Stat /a/f after rename = %v, want ErrNotExist", err)
	}
	if _, falls := fs.FastPathStats(); falls != 1 {
		t.Fatalf("fallbacks = %d, want 1", falls)
	}
	if _, err := fs.Stat(tctx, "/b/f"); err != nil {
		t.Fatalf("Stat /b/f: %v", err)
	}
}

// TestFastPathRaceStress races fast-path readers against rename/unlink
// storms. Run with -race: the walk's loads are atomic and the target
// access is lock-synchronized, so the detector must stay silent; and
// every result must be one of the states the path legitimately passes
// through.
func TestFastPathRaceStress(t *testing.T) {
	fs := New(WithFastPath())
	for _, d := range []string{"/a", "/a/b", "/c"} {
		if err := fs.Mkdir(tctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Mknod(tctx, "/a/b/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(tctx, "/a/b/f", 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}

	const readers, writers, iters = 4, 2, 2000
	stop := make(chan struct{})
	var rg, mg sync.WaitGroup
	for w := 0; w < readers; w++ {
		rg.Add(1)
		go func(w int) {
			defer rg.Done()
			paths := []string{"/a/b/f", "/d/b/f", "/a/b", "/c/x"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := paths[(i+w)%len(paths)]
				if info, err := fs.Stat(tctx, p); err == nil && p[len(p)-1] == 'f' && info.Kind.String() != "file" {
					t.Errorf("stat %s: kind %v", p, info.Kind)
				}
				if data, err := fsapi.ReadAll(tctx, fs, "/a/b/f", 0, 7); err == nil && len(data) != 0 && string(data) != "payload" {
					t.Errorf("read tore: %q", data)
				}
				fs.Readdir(tctx, "/a/b")
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		mg.Add(1)
		go func(w int) {
			defer mg.Done()
			for i := 0; i < iters; i++ {
				if w == 0 {
					fs.Rename(tctx, "/a", "/d")
					fs.Rename(tctx, "/d", "/a")
				} else {
					fs.Mknod(tctx, "/c/x")
					fs.Unlink(tctx, "/c/x")
				}
			}
		}(w)
	}
	mg.Wait()
	close(stop)
	rg.Wait()
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
	hits, falls := fs.FastPathStats()
	// Fallbacks depend on preemption timing (on a single CPU the storm
	// and the readers rarely overlap a validation window), so they are
	// logged, not asserted; the forced-window tests above pin that
	// behavior deterministically.
	t.Logf("fastpath: %d hits, %d fallbacks", hits, falls)
	if hits == 0 {
		t.Error("no fast-path hit under stress")
	}
}

// TestFastPathMonitoredConcurrent is the recorded-history test with the
// fast path on: concurrent bursts, live monitor invariants, offline
// linearizability of the recorded history, and a replay of the monitor's
// claimed linearization order (which now includes validation-point LPs).
func TestFastPathMonitoredConcurrent(t *testing.T) {
	totalFast := 0
	for round := 0; round < 30; round++ {
		rec := history.NewRecorder()
		mon := core.NewMonitor(core.Config{Recorder: rec, CheckGoodAFS: true})
		fs := New(WithFastPath(), WithMonitor(mon))
		if err := fs.Mkdir(tctx, "/a"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Mkdir(tctx, "/a/b"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Mknod(tctx, "/a/b/f"); err != nil {
			t.Fatal(err)
		}
		pre := mon.AbstractState()
		preEvents := rec.Len()

		var wg sync.WaitGroup
		run := func(f func()) { wg.Add(1); go func() { defer wg.Done(); f() }() }
		run(func() { fs.Stat(tctx, "/a/b/f") })
		run(func() { fs.Rename(tctx, "/a", "/e") })
		run(func() { fs.Readdir(tctx, "/a/b") })
		run(func() { fsapi.ReadAll(tctx, fs, "/a/b/f", 0, 4) })
		run(func() { fs.Mknod(tctx, "/a/b/g") })
		wg.Wait()

		requireClean(t, mon)
		if err := mon.Quiesce(); err != nil {
			t.Fatal(err)
		}
		events := rec.Events()[preEvents:]
		res, err := lincheck.Check(pre, events)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Linearizable {
			for _, e := range events {
				t.Logf("%s", e)
			}
			t.Fatalf("round %d: history not linearizable", round)
		}
		ops, _, err := history.Complete(events)
		if err != nil {
			t.Fatal(err)
		}
		order, err := lincheck.LinOrder(ops)
		if err != nil {
			t.Fatal(err)
		}
		if err := lincheck.Replay(pre, ops, order); err != nil {
			t.Fatalf("round %d: monitor order illegal: %v", round, err)
		}
		totalFast += mon.Stats().FastReads
	}
	if totalFast == 0 {
		t.Fatal("30 rounds and no read ever linearized at a validation point")
	}
}

// TestFastPathMonitoredStress: randomized mixed workload under the
// monitor with the fast path enabled.
func TestFastPathMonitoredStress(t *testing.T) {
	mon := core.NewMonitor(core.Config{CheckGoodAFS: true})
	fs := New(WithFastPath(), WithMonitor(mon))
	fstest.Stress(t, fs, 6, 300, 97)
	requireClean(t, mon)
	if err := mon.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
	st := mon.Stats()
	t.Logf("monitored stress: %d fast reads, %d fallbacks", st.FastReads, st.FastFallbacks)
}

// TestFastPathCountersConverge: hits+fallbacks covers every read-only
// operation that attempted the fast path.
func TestFastPathCountersConverge(t *testing.T) {
	fs := New(WithFastPath())
	if err := fs.Mkdir(tctx, "/a"); err != nil {
		t.Fatal(err)
	}
	var ops atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				fs.Stat(tctx, "/a")
				ops.Add(1)
			}
		}()
	}
	wg.Wait()
	hits, falls := fs.FastPathStats()
	if hits+falls != ops.Load() {
		t.Fatalf("hits %d + fallbacks %d != attempts %d", hits, falls, ops.Load())
	}
}

// TestFastPathAdaptiveVeto (fig10 fix): after fastStreakLimit
// consecutive fallbacks the next fastVetoWindow reads skip the fast path
// entirely — no attempt, no hit, no fallback — then probing resumes.
func TestFastPathAdaptiveVeto(t *testing.T) {
	t.Run("seqlock", func(t *testing.T) {
		fs := New(WithFastPath())
		if err := fs.Mkdir(tctx, "/a"); err != nil {
			t.Fatal(err)
		}
		// Hold the write section open: every attempt falls back on
		// its spin budget until the streak trips the veto.
		fs.seqMu.Lock()
		fs.mseq.Begin()
		for i := 0; i < fastStreakLimit; i++ {
			if _, err := fs.Stat(tctx, "/a"); err != nil {
				t.Fatal(err)
			}
		}
		_, falls := fs.FastPathStats()
		if falls != fastStreakLimit {
			t.Fatalf("fallbacks = %d, want %d", falls, fastStreakLimit)
		}
		for i := 0; i < 5; i++ {
			if _, err := fs.Stat(tctx, "/a"); err != nil {
				t.Fatal(err)
			}
		}
		hits, falls := fs.FastPathStats()
		if hits != 0 || falls != fastStreakLimit {
			t.Fatalf("vetoed reads changed stats: hits=%d falls=%d", hits, falls)
		}
		if v := fs.FastPathVetoed(); v != 5 {
			t.Fatalf("vetoed = %d, want 5", v)
		}
		fs.mseq.End()
		fs.seqMu.Unlock()
		// Burn the rest of the window, then the fast path re-engages.
		for i := 0; i < fastVetoWindow-5; i++ {
			if _, err := fs.Stat(tctx, "/a"); err != nil {
				t.Fatal(err)
			}
		}
		if v := fs.FastPathVetoed(); v != fastVetoWindow {
			t.Fatalf("vetoed = %d, want %d", v, fastVetoWindow)
		}
		if _, err := fs.Stat(tctx, "/a"); err != nil {
			t.Fatal(err)
		}
		if hits, _ := fs.FastPathStats(); hits != 1 {
			t.Fatalf("post-window hits = %d, want 1", hits)
		}
	})
}
