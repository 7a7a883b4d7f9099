package fuse

// Tests for the server's leader/follower dispatch: what a connection's
// pool must keep doing (read past a parked request, stay a fixed size
// under sequential load) and that reply coalescing still engages when
// many requests are in flight on one connection.

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/atomfs"
	"repro/internal/obs"
)

// enteredFS is a blockingFS that also reports each Read reaching it.
type enteredFS struct {
	*blockingFS
	entered chan struct{}
}

func (e *enteredFS) Read(ctx context.Context, path string, off int64, dst []byte) (int, error) {
	e.entered <- struct{}{}
	return e.blockingFS.Read(ctx, path, off, dst)
}

// poolGoroutines counts the goroutines running a connection pool's loop.
func poolGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("fuse.(*srvConn).loop("))
}

// TestDispatchLeaderFollower: a Read parked in the file system must not
// stop its connection serving a Stat, and a run of sequential requests
// must not grow the connection's goroutines — the pool's steady state is
// the leader, one follower and the writer, however many requests it has
// served.
func TestDispatchLeaderFollower(t *testing.T) {
	efs := &enteredFS{blockingFS: newBlockingFS(), entered: make(chan struct{}, 1)}
	client, srv := Pipe(efs)
	defer srv.Close()
	defer client.Close()

	go client.Read(tctx, "/slow", 0, make([]byte, 4))
	select {
	case <-efs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("read never reached the file system")
	}
	ctx, cancel := context.WithTimeout(tctx, 5*time.Second)
	defer cancel()
	if _, err := client.Stat(ctx, "/slow"); err != nil {
		t.Fatalf("stat beside a parked read: %v", err)
	}

	stats := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := client.Stat(tctx, "/slow"); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats(100) // warm up: the pool reaches its steady state
	before := runtime.NumGoroutine()
	stats(1000)
	after := runtime.NumGoroutine()
	// A follower that has not parked yet when the next frame arrives makes
	// the leader start one more goroutine, so allow for a rare extra one;
	// a pool that kept a goroutine per request would show up as hundreds.
	if after > before+2 {
		t.Fatalf("goroutines grew from %d to %d over 1000 sequential stats (%d in connection pools)",
			before, after, poolGoroutines())
	}
	// The parked read's goroutine, the leader and one follower.
	if n := poolGoroutines(); n > 3+2 {
		t.Fatalf("%d pool goroutines after sequential stats, want about 3", n)
	}
}

// TestCoalescingUnderPipelining: with many requests in flight on one TCP
// connection, the server's writer must carry several replies per flush.
// The check is on the writer's own frame and flush counts, not timing.
func TestCoalescingUnderPipelining(t *testing.T) {
	const (
		callers = 32
		each    = 2000
	)
	reg := obs.NewRegistry()
	srv := NewServer(atomfs.New(atomfs.WithFastPath()))
	srv.SetObs(reg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()
	client, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Mknod(tctx, "/f"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := client.Stat(tctx, "/f"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	frames := reg.Counter("fuse_writer_frames_total").Value()
	flushes := reg.Counter("fuse_writer_flushes_total").Value()
	t.Logf("%d frames in %d flushes (%.2f per flush)", frames, flushes, float64(frames)/float64(flushes))
	// Under -race the storm still runs, for the detector's sake, but the
	// ratio is not checked: the writer batches what its one Gosched lets
	// other handlers enqueue, and the race build's randomized run queues
	// (about 1.6-2 frames per flush) say nothing about the real scheduler's
	// (8-30).
	if flushes == 0 || !raceEnabled && frames < 2*flushes {
		t.Fatalf("%d frames in %d flushes, want >= 2 frames per flush", frames, flushes)
	}
}
