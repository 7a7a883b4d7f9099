package atomfs

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fserr"
	"repro/internal/fstest"
	"repro/internal/obs"
)

func TestPrefixFunctional(t *testing.T) {
	fs := New(WithPrefixCache())
	fstest.Functional(t, fs)
	hits, misses, _ := fs.PrefixCacheStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("functional suite exercised no cache traffic: hits=%d misses=%d", hits, misses)
	}
}

func TestPrefixDifferential(t *testing.T) {
	for _, fast := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			opts := []Option{WithPrefixCache()}
			if fast {
				opts = append(opts, WithFastPath())
			}
			fstest.Differential(t, New(opts...), seed, 800)
		}
	}
}

func TestPrefixStress(t *testing.T) {
	fs := New(WithPrefixCache())
	fstest.Stress(t, fs, 8, 3000, 7)
	hits, _, invals := fs.PrefixCacheStats()
	if hits == 0 {
		t.Fatal("stress run never hit the prefix cache")
	}
	if invals == 0 {
		t.Fatal("stress run never invalidated a prefix entry (renames and unlinks ran)")
	}
}

// TestPrefixMonitoredStress: under the full CRL-H monitor the shortcut
// must be taken (ShortcutEntries), occasionally refused (the monitor or
// the generations catch a race), and — in ModeHelpers — never produce a
// violation. The ModeFixedLP leg is different by design: FixedLP exists
// to demonstrate the paper's Figure-1 phenomenon, and the prefix
// shortcut widens the always-present coupled-walk overtake window (an
// op holding only a deep inode's lock can be overtaken by an ancestor
// rename that commits before the op's fixed LP), so refinement
// violations and their downstream abstract-drift are EXPECTED there —
// see testdata/prefix_fixedlp_overtake.repro for the shrunk schedule
// and its clean helpers twin. What FixedLP must still never produce is
// a discipline violation: the protocol, lock-path, and bypass
// obligations hold regardless of LP placement. (The old version of this
// test asserted zero violations in both modes and flaked ~10% of runs —
// always in the FixedLP leg; ROADMAP item 6.)
func TestPrefixMonitoredStress(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeFixedLP, core.ModeHelpers} {
		mon := core.NewMonitor(core.Config{Mode: mode, CheckGoodAFS: true})
		fs := New(WithMonitor(mon), WithPrefixCache())
		fstest.Stress(t, fs, 8, 3000, 11)
		viols := mon.Violations()
		if mode == core.ModeHelpers {
			if len(viols) > 0 {
				t.Fatalf("mode %v: violations: %v", mode, viols)
			}
			if err := mon.Quiesce(); err != nil {
				t.Fatalf("mode %v: quiesce: %v", mode, err)
			}
		} else {
			for _, v := range viols {
				switch v.Kind {
				case core.ViolRefinement, core.ViolRelation, core.ViolGoodAFS,
					core.ViolShortcut:
					// Figure-1 class: a fixed-LP misorder and the abstract
					// drift that follows from it. Shortcut entries replay
					// their observed path against the abstract tree, so once
					// the drift exists that comparison legitimately diverges
					// too — same root cause, different detector.
				default:
					t.Fatalf("mode %v: discipline violation: %v", mode, v)
				}
			}
			if len(viols) == 0 {
				// No misorder materialized this run: the abstract state
				// must then still quiesce exactly.
				if err := mon.Quiesce(); err != nil {
					t.Fatalf("mode %v: quiesce: %v", mode, err)
				}
			} else {
				t.Logf("mode %v: %d expected Figure-1-class violations", mode, len(viols))
			}
		}
		st := mon.Stats()
		if st.ShortcutEntries == 0 {
			t.Fatalf("mode %v: no shortcut entries exercised", mode)
		}
		t.Logf("mode %v: shortcuts=%d fallbacks=%d", mode, st.ShortcutEntries, st.ShortcutFallbacks)
	}
}

// TestPrefixShortcutVsRename is the deterministic version of the
// schedfuzz golden: a create caches /a/b, a rename detaches /a, and the
// next create through the cache must observe the moved generations and
// fall back — resolving against the real tree, never the detached one.
func TestPrefixShortcutVsRename(t *testing.T) {
	fs := New(WithPrefixCache())
	mustOK(t, fs.Mkdir(tctx, "/a"))
	mustOK(t, fs.Mkdir(tctx, "/a/b"))
	mustOK(t, fs.Mknod(tctx, "/a/b/f1")) // walk fills the /a/b prefix

	mustOK(t, fs.Rename(tctx, "/a", "/d")) // detaches a: every /a/* entry is stale
	_, _, invals0 := fs.PrefixCacheStats()

	// The cached /a/b chain must not resolve this create: /a is gone.
	if err := fs.Mknod(tctx, "/a/b/f2"); !errors.Is(err, fserr.ErrNotExist) {
		t.Fatalf("create through detached prefix: err=%v, want ErrNotExist", err)
	}
	if _, _, invals := fs.PrefixCacheStats(); invals <= invals0 {
		t.Fatal("stale /a/b entry was not discarded")
	}
	// The subtree is alive under its new name and caches afresh.
	mustOK(t, fs.Mknod(tctx, "/d/b/f2"))
	hits0, _, _ := fs.PrefixCacheStats()
	mustOK(t, fs.Mknod(tctx, "/d/b/f3"))
	if hits, _, _ := fs.PrefixCacheStats(); hits <= hits0 {
		t.Fatal("second create under /d/b did not hit the refilled prefix")
	}
}

// TestPrefixUnlinkInvalidates: del bumps the removed child's generation,
// so cached chains THROUGH the removed directory go stale while the
// parent's own prefix survives.
func TestPrefixUnlinkInvalidates(t *testing.T) {
	fs := New(WithPrefixCache())
	mustOK(t, fs.Mkdir(tctx, "/p"))
	mustOK(t, fs.Mkdir(tctx, "/p/q"))
	mustOK(t, fs.Mknod(tctx, "/p/q/f")) // caches /p and /p/q
	mustOK(t, fs.Unlink(tctx, "/p/q/f"))
	mustOK(t, fs.Rmdir(tctx, "/p/q"))

	if err := fs.Mknod(tctx, "/p/q/g"); !errors.Is(err, fserr.ErrNotExist) {
		t.Fatalf("create through removed dir: err=%v, want ErrNotExist", err)
	}
	// /p itself was never detached: its prefix entry still validates.
	hits0, _, _ := fs.PrefixCacheStats()
	mustOK(t, fs.Mknod(tctx, "/p/f2"))
	if hits, _, _ := fs.PrefixCacheStats(); hits <= hits0 {
		t.Fatal("surviving /p prefix was not used")
	}
}

// TestPrefixDeepTree: the workload the cache exists for — repeated
// mutations at the bottom of a deep chain should hit almost always
// after the first walk.
func TestPrefixDeepTree(t *testing.T) {
	fs := New(WithPrefixCache())
	base := fstest.DeepTree(t, fs, 8)
	for i := 0; i < 32; i++ {
		mustOK(t, fs.Mknod(tctx, fmt.Sprintf("%s/f%d", base, i)))
	}
	hits, misses, _ := fs.PrefixCacheStats()
	if hits < 30 {
		t.Fatalf("deep-tree creates mostly missed: hits=%d misses=%d", hits, misses)
	}
}

// TestPrefixObsEvents: prefix traffic must surface in the registry
// gauges and the flight recorder.
func TestPrefixObsEvents(t *testing.T) {
	reg := obs.NewRegistry()
	fs := New(WithPrefixCache(), WithObs(reg), WithObsSampleEvery(1))
	mustOK(t, fs.Mkdir(tctx, "/a"))
	mustOK(t, fs.Mkdir(tctx, "/a/b"))
	mustOK(t, fs.Mknod(tctx, "/a/b/f1"))
	mustOK(t, fs.Mknod(tctx, "/a/b/f2")) // hit
	mustOK(t, fs.Rename(tctx, "/a", "/d"))
	fs.Mknod(tctx, "/a/b/f3") // stale: inval + fallback

	for _, name := range []string{
		"atomfs_prefix_hits_total", "atomfs_prefix_misses_total", "atomfs_prefix_invalidations_total",
	} {
		v, ok := reg.FuncValue(name)
		if !ok {
			t.Fatalf("gauge %s not registered", name)
		}
		if v == 0 {
			t.Fatalf("gauge %s is zero", name)
		}
	}
	kinds := map[obs.EventKind]bool{}
	for _, e := range reg.FlightRecorder().Snapshot() {
		kinds[e.Kind] = true
	}
	for _, k := range []obs.EventKind{obs.EvPrefixHit, obs.EvPrefixFallback, obs.EvPrefixInval} {
		if !kinds[k] {
			t.Fatalf("no %s event recorded", k)
		}
	}
}

// TestPrefixCacheEviction: shards are bounded; overflowing one evicts
// rather than grows.
func TestPrefixCacheEviction(t *testing.T) {
	fs := New(WithPrefixCache())
	for i := 0; i < prefixShards*prefixShardEntries+512; i++ {
		d := fmt.Sprintf("/d%d", i)
		mustOK(t, fs.Mkdir(tctx, d))
		mustOK(t, fs.Mknod(tctx, d+"/f"))
	}
	for i := range fs.pcache.shards {
		s := &fs.pcache.shards[i]
		s.mu.Lock()
		n := len(s.m)
		s.mu.Unlock()
		if n > prefixShardEntries {
			t.Fatalf("shard %d grew to %d entries (cap %d)", i, n, prefixShardEntries)
		}
	}
}

// TestPrefixGenParity: detach generations are seqlock-style — even at
// rest, bumped twice around each detach — so a concurrent lock-free
// valid() can never see a half-done detach as current.
func TestPrefixGenParity(t *testing.T) {
	fs := New(WithPrefixCache())
	mustOK(t, fs.Mkdir(tctx, "/a"))
	mustOK(t, fs.Mknod(tctx, "/a/f"))
	a, ok := fs.root.dir.Lookup("a")
	if !ok {
		t.Fatal("no /a")
	}
	if g := a.gen.Load(); g != 0 {
		t.Fatalf("fresh dir gen = %d, want 0", g)
	}
	mustOK(t, fs.Rename(tctx, "/a", "/b"))
	if g := a.gen.Load(); g != 2 || g%2 != 0 {
		t.Fatalf("post-rename gen = %d, want 2", g)
	}
	f, ok := a.dir.Lookup("f")
	if !ok {
		t.Fatal("no /b/f")
	}
	mustOK(t, fs.Unlink(tctx, "/b/f"))
	if g := f.gen.Load(); g != 2 {
		t.Fatalf("unlinked file gen = %d, want 2", g)
	}
	if g := a.gen.Load(); g != 2 {
		t.Fatalf("parent gen moved on child unlink: %d", g)
	}
}

// TestPrefixName: the system name advertises the variant for benchmark
// tables.
func TestPrefixName(t *testing.T) {
	if got := New(WithPrefixCache()).Name(); got != "atomfs-prefix" {
		t.Fatalf("Name() = %q", got)
	}
	if got := New(WithPrefixCache(), WithFastPath()).Name(); got != "atomfs-fastpath-prefix" {
		t.Fatalf("Name() = %q", got)
	}
}

// TestPrefixBigLockPanics: the big-lock reference build has no
// per-inode locks for the entry to take.
func TestPrefixBigLockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithBigLock+WithPrefixCache did not panic")
		}
	}()
	New(WithBigLock(), WithPrefixCache())
}

// TestPrefixConcurrentRenameStorm: many creators racing subtree renames;
// the differential/monitor layers are exercised elsewhere — this run is
// about the race detector seeing the gen/stamp protocol under load.
func TestPrefixConcurrentRenameStorm(t *testing.T) {
	fs := New(WithPrefixCache())
	mustOK(t, fs.Mkdir(tctx, "/a"))
	mustOK(t, fs.Mkdir(tctx, "/a/b"))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				fs.Mknod(tctx, fmt.Sprintf("/a/b/w%d_%d", w, i))
				if i%8 == 0 {
					fs.Stat(tctx, "/a/b")
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			fs.Rename(tctx, "/a", "/t")
			fs.Rename(tctx, "/t", "/a")
		}
	}()
	wg.Wait()
	if _, err := fs.Stat(tctx, "/a/b"); err != nil {
		t.Fatalf("tree lost: %v", err)
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
