package mount

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/atomfs"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/memfs"
	"repro/internal/pathname"
)

var tctx = context.Background()

func TestResolveLongestPrefix(t *testing.T) {
	root, mid, deep := memfs.New(), memfs.New(), memfs.New()
	ns := New(root)
	if err := ns.Mount(tctx, "/m", mid); err != nil {
		t.Fatal(err)
	}
	if err := ns.Mount(tctx, "/m/deep", deep); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		vol  fsapi.FS
		rel  string
	}{
		{"/", root, "/"},
		{"/x/y", root, "/x/y"},
		{"/m", mid, "/"},
		{"/m/f", mid, "/f"},
		{"/m/deep", deep, "/"},
		{"/m/deep/f", deep, "/f"},
		{"/m/deeper", mid, "/deeper"},
	} {
		v, rel, err := ns.Resolve(tc.path)
		if err != nil {
			t.Fatalf("resolve %s: %v", tc.path, err)
		}
		if v != tc.vol || rel != tc.rel {
			t.Errorf("resolve %s = (%s, %s), want (%s, %s)",
				tc.path, fsapi.Name(v), rel, fsapi.Name(tc.vol), tc.rel)
		}
	}
}

func TestMountSetup(t *testing.T) {
	ns := New(memfs.New())
	if err := ns.Mount(tctx, "/", memfs.New()); !errors.Is(err, fserr.ErrBusy) {
		t.Errorf("remounting root: %v, want %v", err, fserr.ErrBusy)
	}
	if err := ns.Mount(tctx, "/a/b", memfs.New()); err != nil {
		t.Fatalf("mount with covering dirs: %v", err)
	}
	// Both covering components must now exist in the root volume.
	if _, err := ns.Stat(tctx, "/a"); err != nil {
		t.Errorf("covering dir /a: %v", err)
	}
	if err := ns.Mount(tctx, "/a/b", memfs.New()); !errors.Is(err, fserr.ErrExist) {
		t.Errorf("duplicate mount: %v, want %v", err, fserr.ErrExist)
	}
	if got := len(ns.Mounts()); got != 2 {
		t.Errorf("table rows = %d, want 2", got)
	}
}

func TestMountPointPinning(t *testing.T) {
	ns := New(memfs.New())
	if err := ns.Mount(tctx, "/a/b", memfs.New()); err != nil {
		t.Fatal(err)
	}
	// The mount point and its ancestor are pinned; siblings are not.
	for _, p := range []string{"/a", "/a/b"} {
		if err := ns.Rename(tctx, p, "/z"); !errors.Is(err, fserr.ErrBusy) {
			t.Errorf("rename %s: %v, want %v", p, err, fserr.ErrBusy)
		}
		if err := ns.Rmdir(tctx, p); !errors.Is(err, fserr.ErrBusy) {
			t.Errorf("rmdir %s: %v, want %v", p, err, fserr.ErrBusy)
		}
		if err := ns.Unlink(tctx, p); !errors.Is(err, fserr.ErrBusy) {
			t.Errorf("unlink %s: %v, want %v", p, err, fserr.ErrBusy)
		}
	}
	if err := ns.Mkdir(tctx, "/a/c"); err != nil {
		t.Fatal(err)
	}
	if err := ns.Rename(tctx, "/a/c", "/a/d"); err != nil {
		t.Errorf("rename of mount sibling: %v", err)
	}
	// Renaming onto a pinned path is refused before touching any volume.
	if err := ns.Mkdir(tctx, "/s"); err != nil {
		t.Fatal(err)
	}
	if err := ns.Rename(tctx, "/s", "/a/b"); !errors.Is(err, fserr.ErrBusy) {
		t.Errorf("rename onto mount point: %v, want %v", err, fserr.ErrBusy)
	}
}

// TestCrossRenameStress free-runs the two-phase protocol under the race
// detector: several goroutines issue cross-volume renames in both
// directions (the namespace serializes them) while others mutate and read
// both volumes. Both monitors must stay silent and both ghost states must
// match their trees at quiescence.
func TestCrossRenameStress(t *testing.T) {
	mons := []*core.Monitor{
		core.NewMonitor(core.Config{CheckGoodAFS: true}),
		core.NewMonitor(core.Config{CheckGoodAFS: true}),
	}
	src := atomfs.New(atomfs.WithMonitor(mons[0]), atomfs.WithFastPath(), atomfs.WithPrefixCache())
	dst := atomfs.New(atomfs.WithMonitor(mons[1]), atomfs.WithFastPath(), atomfs.WithPrefixCache())
	ns := New(src)
	if err := ns.Mount(tctx, "/m", dst); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"/a", "/a/b", "/m/d"} {
		if err := ns.Mkdir(tctx, d); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"/a/f0", "/a/b/f0", "/m/d/g0"} {
		if err := ns.Mknod(tctx, f); err != nil {
			t.Fatal(err)
		}
	}

	const (
		crossers = 3
		mutators = 3
		readers  = 2
		rounds   = 60
	)
	var wg sync.WaitGroup
	for g := 0; g < crossers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < rounds; i++ {
				switch r.Intn(4) {
				case 0: // commit path, left to right
					ns.Rename(tctx, fmt.Sprintf("/a/c%d", g), fmt.Sprintf("/m/c%d", g))
				case 1: // commit path, right to left
					ns.Rename(tctx, fmt.Sprintf("/m/c%d", g), fmt.Sprintf("/a/c%d", g))
				case 2: // abort path: dir onto the (usually) nonempty /m/d
					ns.Rename(tctx, "/a/b", "/m/d")
				default: // feed the commit cases
					ns.Mkdir(tctx, fmt.Sprintf("/a/c%d", g))
					ns.Mknod(tctx, fmt.Sprintf("/a/c%d/f", g))
				}
			}
		}(g)
	}
	for g := 0; g < mutators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 100))
			for i := 0; i < rounds; i++ {
				switch r.Intn(4) {
				case 0:
					ns.Mknod(tctx, fmt.Sprintf("/a/b/n%d", r.Intn(3)))
				case 1:
					ns.Unlink(tctx, fmt.Sprintf("/a/b/n%d", r.Intn(3)))
				case 2:
					ns.Mknod(tctx, fmt.Sprintf("/m/d/n%d", r.Intn(3)))
				default:
					ns.Rename(tctx, "/m/d/g0", "/m/g1")
					ns.Rename(tctx, "/m/g1", "/m/d/g0")
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds*2; i++ {
				ns.Stat(tctx, "/a/b/f0")
				ns.Readdir(tctx, "/m/d")
				ns.Stat(tctx, "/m/d/g0")
				ns.Readdir(tctx, "/a")
			}
		}(g)
	}
	wg.Wait()

	commits, aborts := 0, 0
	for i, mon := range mons {
		for _, v := range mon.Violations() {
			t.Errorf("vol %d violation: %s", i, v)
		}
		if err := mon.Quiesce(); err != nil {
			t.Errorf("vol %d quiesce: %v", i, err)
		}
		st := mon.Stats()
		commits += st.CrossCommits
		aborts += st.CrossAborts
	}
	if commits == 0 {
		t.Error("stress never took the commit path")
	}
	if aborts == 0 {
		t.Error("stress never took the abort path")
	}
}

// TestResolveOnStringMatchesSplit: the string-matching resolve of
// canonical paths and the split-and-join resolve agree on every path —
// volume, residual, mount pinning and error — canonical or not.
func TestResolveOnStringMatchesSplit(t *testing.T) {
	ns := New(memfs.New())
	for _, m := range []string{"/m", "/m/deep", "/a/b", "/v1"} {
		if err := ns.Mount(tctx, m, memfs.New()); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{
		"/", "/m", "/m/", "/m/f", "/m//f", "/m/deep", "/m/deep/f/g", "/m/deeper", "/mm",
		"/a", "/a/b", "/a/bc", "/a/b/c", "/a/c", "/v1/d03/sub/f001", "/v", "/v10",
		"//m/deep", "/m/./f", "/m/..", "", "m/f", "/a\x00b",
	} {
		v, rel, pinned, err := ns.resolvePinned(p)
		rv, rrel, rerr := ns.Resolve(p)
		parts, serr := pathname.Split(p)
		if serr != nil {
			if !errors.Is(err, serr) || !errors.Is(rerr, serr) {
				t.Errorf("%q: errors %v / %v, want %v", p, err, rerr, serr)
			}
			continue
		}
		wv, wrel := ns.resolveParts(parts)
		if err != nil || rerr != nil || v != wv || rv != wv || rel != wrel || rrel != wrel {
			t.Errorf("%q: resolved to (%s, %q) and (%s, %q), want (%s, %q)",
				p, fsapi.Name(v), rel, fsapi.Name(rv), rrel, fsapi.Name(wv), wrel)
		}
		if want := ns.pinsMount(parts); pinned != want {
			t.Errorf("%q: pinned = %v, want %v", p, pinned, want)
		}
	}
}

// TestResolveCanonicalAllocatesNothing: resolving a canonical path, and
// checking it for a pinned mount, allocates nothing.
func TestResolveCanonicalAllocatesNothing(t *testing.T) {
	ns := New(memfs.New())
	for _, m := range []string{"/v0", "/v1", "/v2"} {
		if err := ns.Mount(tctx, m, memfs.New()); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/v1/d03/sub/f001", "/top/f", "/v2"} {
		if n := testing.AllocsPerRun(100, func() {
			if _, _, err := ns.Resolve(p); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Resolve(%q): %v allocs, want 0", p, n)
		}
		if n := testing.AllocsPerRun(100, func() { ns.resolvePinned(p) }); n != 0 {
			t.Errorf("resolvePinned(%q): %v allocs, want 0", p, n)
		}
	}
}

func BenchmarkResolve(b *testing.B) {
	ns := New(memfs.New())
	for i := 0; i < 4; i++ {
		if err := ns.Mount(tctx, fmt.Sprintf("/v%d", i), memfs.New()); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range []string{"/v1/d03/sub/f001", "/v1//d03/sub/f001/"} {
		b.Run(p, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ns.Resolve(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
