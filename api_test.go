// Tests of the public façade (import path "repro"): every exported entry
// point works end-to-end, so downstream users can rely on the surface
// documented in the package comment.
package atomfs_test

import (
	"errors"
	"net"
	"sync"
	"testing"

	atomfs "repro"
	"repro/internal/fserr"
	"repro/internal/history"
)

func TestPublicQuickstart(t *testing.T) {
	fs := atomfs.New()
	if err := fs.Mkdir(tctx, "/docs"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mknod(tctx, "/docs/hello"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(tctx, "/docs/hello", 0, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	data, err := atomfs.ReadAll(tctx, fs, "/docs/hello", 0, 10)
	if err != nil || string(data) != "hi" {
		t.Fatalf("read = %q %v", data, err)
	}
	info, err := fs.Stat(tctx, "/docs/hello")
	if err != nil || info.Kind != atomfs.KindFile || info.Size != 2 {
		t.Fatalf("stat = %+v %v", info, err)
	}
	if err := fs.Rename(tctx, "/docs", "/archive"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(tctx, "/docs"); !errors.Is(err, fserr.ErrNotExist) {
		t.Fatal("rename did not move the tree")
	}
}

func TestPublicVariants(t *testing.T) {
	for _, fs := range []atomfs.FS{
		atomfs.New(), atomfs.NewBigLock(), atomfs.NewRetryFS(), atomfs.NewMemFS(),
		atomfs.NewSlowFS(atomfs.NewMemFS()),
	} {
		if err := fs.Mkdir(tctx, "/d"); err != nil {
			t.Fatalf("%T: %v", fs, err)
		}
		if names, err := fs.Readdir(tctx, "/"); err != nil || len(names) != 1 {
			t.Fatalf("%T: readdir = %v %v", fs, names, err)
		}
	}
}

func TestPublicMonitorFlow(t *testing.T) {
	rec := atomfs.NewRecorder()
	mon := atomfs.NewMonitor(atomfs.MonitorConfig{Recorder: rec, CheckGoodAFS: true})
	fs := atomfs.New(atomfs.WithMonitor(mon))
	if err := fs.Mkdir(tctx, "/a"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fs.Mknod(tctx, "/a/f"+string(rune('0'+i)))
		}(i)
	}
	wg.Wait()
	if vs := mon.Violations(); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	if err := mon.Quiesce(); err != nil {
		t.Fatal(err)
	}
	res, err := atomfs.CheckLinearizable(nil, rec.Events())
	if err != nil || !res.Linearizable {
		t.Fatalf("lincheck: %+v %v", res, err)
	}
	st := mon.Stats()
	if st.Linearized != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPublicHooks(t *testing.T) {
	var events []atomfs.HookEvent
	var mu sync.Mutex
	fs := atomfs.New(atomfs.WithHook(func(ev atomfs.HookEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}))
	fs.Mkdir(tctx, "/a")
	mu.Lock()
	defer mu.Unlock()
	var sawLock, sawLP bool
	for _, ev := range events {
		if ev.Point == atomfs.HookLocked {
			sawLock = true
		}
		if ev.Point == atomfs.HookBeforeLP && ev.Op == atomfs.OpMkdir {
			sawLP = true
		}
	}
	if !sawLock || !sawLP {
		t.Fatalf("hook events incomplete: lock=%v lp=%v", sawLock, sawLP)
	}
}

func TestPublicVFS(t *testing.T) {
	v := atomfs.NewVFS(atomfs.New())
	fd, err := v.Create(tctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(tctx, fd, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := v.Unlink(tctx, "/f"); err != nil {
		t.Fatal(err)
	}
	if err := v.Seek(fd, 0); err != nil {
		t.Fatal(err)
	}
	data, err := v.Read(tctx, fd, 3)
	if err != nil || string(data) != "abc" {
		t.Fatalf("read-after-unlink = %q %v", data, err)
	}
}

func TestPublicMount(t *testing.T) {
	fs := atomfs.New()
	client, cleanup := atomfs.Mount(fs)
	defer cleanup()
	if err := client.Mkdir(tctx, "/via-mount"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(tctx, "/via-mount"); err != nil {
		t.Fatal("mount did not reach the backing FS")
	}
}

func TestPublicServeDial(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := atomfs.New()
	go atomfs.Serve(lis, fs)
	defer lis.Close()
	client, err := atomfs.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Mknod(tctx, "/net"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(tctx, "/net"); err != nil {
		t.Fatal("served FS did not observe the write")
	}
}

func TestPublicFixedLPModeExists(t *testing.T) {
	mon := atomfs.NewMonitor(atomfs.MonitorConfig{Mode: atomfs.ModeFixedLP})
	if mon.Mode() != atomfs.ModeFixedLP {
		t.Fatal("mode not wired through")
	}
	_ = history.Event{} // the history types are reachable for event consumers
}
