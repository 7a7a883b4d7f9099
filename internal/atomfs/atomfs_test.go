package atomfs

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fserr"
	"repro/internal/fstest"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/spec"
)

func TestFunctional(t *testing.T) {
	fstest.Functional(t, New())
}

func TestFunctionalBigLock(t *testing.T) {
	fstest.Functional(t, New(WithBigLock()))
}

func TestFunctionalMonitored(t *testing.T) {
	mon := core.NewMonitor(core.Config{CheckGoodAFS: true})
	fs := New(WithMonitor(mon))
	fstest.Functional(t, fs)
	requireClean(t, mon)
	if err := mon.Quiesce(); err != nil {
		t.Fatal(err)
	}
}

func requireClean(t *testing.T, mon *core.Monitor) {
	t.Helper()
	for _, v := range mon.Violations() {
		t.Errorf("violation: %s", v)
	}
}

func TestDifferentialVsSpec(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fstest.Differential(t, New(), seed, 600)
		})
	}
}

func TestDifferentialVsSpecMonitored(t *testing.T) {
	mon := core.NewMonitor(core.Config{CheckGoodAFS: true})
	fs := New(WithMonitor(mon))
	fstest.Differential(t, fs, 42, 800)
	requireClean(t, mon)
	if err := mon.Quiesce(); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentialBigLock(t *testing.T) {
	fstest.Differential(t, New(WithBigLock()), 7, 600)
}

func TestStressUnmonitored(t *testing.T) {
	fs := New()
	fstest.Stress(t, fs, 8, 400, 11)
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestStressMonitored(t *testing.T) {
	mon := core.NewMonitor(core.Config{CheckGoodAFS: true})
	fs := New(WithMonitor(mon))
	fstest.Stress(t, fs, 6, 300, 23)
	requireClean(t, mon)
	if err := mon.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestStressBigLock(t *testing.T) {
	fs := New(WithBigLock())
	fstest.Stress(t, fs, 8, 300, 31)
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestRenameStressDeadlockFree hammers concurrent renames across shared
// subtrees; §5.2's common-ancestor rule must keep this deadlock-free.
// A deadlock surfaces as the test timing out.
func TestRenameStressDeadlockFree(t *testing.T) {
	fs := New()
	for _, d := range []string{"/a", "/a/x", "/a/x/y", "/b", "/b/u", "/b/u/v", "/c"} {
		if err := fs.Mkdir(tctx, d); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	dirs := []string{"/a", "/a/x", "/a/x/y", "/b", "/b/u", "/b/u/v", "/c"}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				src := dirs[(w+i)%len(dirs)] + "/m"
				dst := dirs[(w*3+i*7)%len(dirs)] + "/m"
				fs.Mkdir(tctx, src)
				fs.Rename(tctx, src, dst)
				fs.Rmdir(tctx, dst)
			}
		}(w)
	}
	wg.Wait()
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestRenameOntoOwnParent covers the dnode == sdir corner (rename of an
// entry onto its own parent directory), which must not self-deadlock.
func TestRenameOntoOwnParent(t *testing.T) {
	fs := New()
	if err := fs.Mkdir(tctx, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(tctx, "/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(tctx, "/a/b/s"); err != nil {
		t.Fatal(err)
	}
	// dir over non-empty dir (its own parent) -> ENOTEMPTY.
	if err := fs.Rename(tctx, "/a/b/s", "/a/b"); !errors.Is(err, fserr.ErrNotEmpty) {
		t.Fatalf("err = %v, want ENOTEMPTY", err)
	}
	// file over its own parent dir -> EISDIR.
	if err := fs.Mknod(tctx, "/a/b/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(tctx, "/a/b/f", "/a/b"); !errors.Is(err, fserr.ErrIsDir) {
		t.Fatalf("err = %v, want EISDIR", err)
	}
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentHistoryLinearizable runs small concurrent bursts with the
// recorder attached and verifies offline that every recorded history is
// linearizable, and that the monitor's claimed lin order replays legally.
func TestConcurrentHistoryLinearizable(t *testing.T) {
	for round := 0; round < 30; round++ {
		rec := history.NewRecorder()
		mon := core.NewMonitor(core.Config{Recorder: rec, CheckGoodAFS: true})
		fs := New(WithMonitor(mon))
		// Shared prefix to force interaction.
		if err := fs.Mkdir(tctx, "/a"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Mkdir(tctx, "/a/b"); err != nil {
			t.Fatal(err)
		}
		pre := mon.AbstractState()
		preEvents := rec.Len()

		var wg sync.WaitGroup
		run := func(f func()) { wg.Add(1); go func() { defer wg.Done(); f() }() }
		run(func() { fs.Mkdir(tctx, "/a/b/c") })
		run(func() { fs.Rename(tctx, "/a", "/e") })
		run(func() { fs.Stat(tctx, "/a/b") })
		run(func() { fs.Mknod(tctx, "/a/b/f") })
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
		// The monitor's claimed order must itself be a legal witness.
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
	}
}

// TestBlockLeak verifies create/write/delete cycles return all blocks.
func TestBlockLeak(t *testing.T) {
	fs := New(WithBlocks(64))
	for i := 0; i < 10; i++ {
		if err := fs.Mknod(tctx, "/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Write(tctx, "/f", 0, make([]byte, 8192)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Unlink(tctx, "/f"); err != nil {
			t.Fatal(err)
		}
	}
	if n := fs.BlocksInUse(); n != 0 {
		t.Fatalf("leaked %d blocks", n)
	}
	// Rename-overwrite also frees the victim's storage.
	fs.Mknod(tctx, "/x")
	fs.Write(tctx, "/x", 0, make([]byte, 8192))
	fs.Mknod(tctx, "/y")
	fs.Write(tctx, "/y", 0, make([]byte, 8192))
	fs.Rename(tctx, "/x", "/y")
	fs.Unlink(tctx, "/y")
	if n := fs.BlocksInUse(); n != 0 {
		t.Fatalf("rename leaked %d blocks", n)
	}
}

// TestDeepTraversal exercises long chains (lock coupling over many levels).
func TestDeepTraversal(t *testing.T) {
	fs := New()
	path := fstest.DeepTree(t, fs, 40)
	if err := fs.Mknod(tctx, path+"/leaf"); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat(tctx, path+"/leaf")
	if err != nil || info.Kind != spec.KindFile {
		t.Fatalf("stat deep leaf: %+v %v", info, err)
	}
	if err := fs.Rename(tctx, "/d0/d1", "/moved"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(tctx, "/moved/d2"); err != nil {
		t.Fatal(err)
	}
}

func TestNames(t *testing.T) {
	if New().Name() != "atomfs" {
		t.Error("bad name")
	}
	if New(WithBigLock()).Name() != "atomfs-biglock" {
		t.Error("bad biglock name")
	}
	if New(WithUnsafeTraversal()).Name() != "atomfs-unsafe" {
		t.Error("bad unsafe name")
	}
}

func TestBigLockMonitorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("biglock+monitor did not panic")
		}
	}()
	New(WithBigLock(), WithMonitor(core.NewMonitor(core.Config{})))
}

// newMon builds a monitor configured like the scenario tests use.
func newMon() *core.Monitor {
	return core.NewMonitor(core.Config{CheckGoodAFS: true})
}

// TestStateDifferentialVsSpec goes beyond return-value equivalence: after
// every operation of a random stream, the concrete tree rendered as an
// abstract state must equal the model exactly (canonical keys).
func TestStateDifferentialVsSpec(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		fs := New()
		model := spec.New()
		stream := fstest.NewOpStream(seed * 997)
		for i := 0; i < 300; i++ {
			op, args := stream.Next()
			model.Apply(op, args)
			fstest.ApplyFS(tctx, fs, op, args)
			if got, want := fs.SnapshotKey(), model.Key(); got != want {
				t.Fatalf("seed %d step %d (%s %s): state diverged\nconcrete %s\nmodel    %s",
					seed, i, op, args, got, want)
			}
		}
	}
}

func TestUsageCounters(t *testing.T) {
	fs := New(WithBlocks(64))
	fs.Mkdir(tctx, "/d")
	fs.Mknod(tctx, "/d/f")
	fs.Write(tctx, "/d/f", 0, make([]byte, 8192))
	u := fs.Usage()
	if u.Inodes != 3 || u.Dirs != 2 || u.Files != 1 || u.Blocks != 2 {
		t.Fatalf("usage = %+v", u)
	}
	fs.Unlink(tctx, "/d/f")
	fs.Rmdir(tctx, "/d")
	u = fs.Usage()
	if u.Inodes != 1 || u.Blocks != 0 {
		t.Fatalf("after cleanup: %+v", u)
	}
}

// TestRenameTortureDeadlockFree extends the deadlock stress with the
// adversarial structural patterns: renames whose LCAs are nested
// (ancestor/descendant), cross renames between sibling subtrees, and
// renames racing dels on the same victims. Completion within the test
// timeout is the assertion.
func TestRenameTortureDeadlockFree(t *testing.T) {
	fs := New()
	for _, d := range []string{"/p", "/p/a", "/p/a/x", "/p/b", "/p/b/y", "/q"} {
		if err := fs.Mkdir(tctx, d); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	worker := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				f(i)
			}
		}()
	}
	// Cross renames between /p/a/x and /p/b/y (LCA = /p).
	worker(func(i int) {
		fs.Mkdir(tctx, "/p/a/x/m")
		fs.Rename(tctx, "/p/a/x/m", "/p/b/y/m")
		fs.Rmdir(tctx, "/p/b/y/m")
	})
	worker(func(i int) {
		fs.Mkdir(tctx, "/p/b/y/n")
		fs.Rename(tctx, "/p/b/y/n", "/p/a/x/n")
		fs.Rmdir(tctx, "/p/a/x/n")
	})
	// Renames with nested LCAs: one at /p, one at root.
	worker(func(i int) {
		fs.Rename(tctx, "/p/a", "/q/a")
		fs.Rename(tctx, "/q/a", "/p/a")
	})
	// Same-branch churn: rename within /p/b while /p itself is contested.
	worker(func(i int) {
		fs.Mknod(tctx, "/p/b/f")
		fs.Rename(tctx, "/p/b/f", "/p/b/g")
		fs.Unlink(tctx, "/p/b/g")
	})
	// A del racing everything on the shared spine.
	worker(func(i int) {
		fs.Mkdir(tctx, "/p/tmp")
		fs.Rmdir(tctx, "/p/tmp")
	})
	wg.Wait()
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestMonitoredENOSPCDivergesByDesign documents a deliberate boundary of
// the verified envelope: the abstract specification has no notion of
// ramdisk exhaustion, so a monitored write that hits mid-write ENOSPC
// diverges from the spec and the monitor reports the refinement mismatch.
// Production configurations size the store so this cannot happen (see
// WithBlocks); this test pins the failure mode down instead of letting it
// surprise someone later.
func TestMonitoredENOSPCDivergesByDesign(t *testing.T) {
	mon := newMon()
	fs := New(WithMonitor(mon), WithBlocks(2))
	if err := fs.Mknod(tctx, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(tctx, "/f", 0, make([]byte, 4*4096)); !errors.Is(err, fserr.ErrNoSpace) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	found := false
	for _, v := range mon.Violations() {
		if v.Kind == core.ViolRefinement {
			found = true
		}
	}
	if !found {
		t.Fatal("expected the documented refinement divergence on mid-write ENOSPC")
	}
}
