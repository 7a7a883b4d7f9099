package fuse

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/atomfs"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/fstest"
	"repro/internal/memfs"
	"repro/internal/spec"
)

func TestCodecRoundTrip(t *testing.T) {
	req := &request{
		ID: 7, Op: spec.OpWrite, Path: "/a/b", Path2: "/c",
		Off: 1 << 40, Size: 123, Data: []byte("payload"),
	}
	got, err := decodeRequest(encodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 7 || got.Op != spec.OpWrite || got.Path != "/a/b" ||
		got.Path2 != "/c" || got.Off != 1<<40 || got.Size != 123 ||
		!bytes.Equal(got.Data, []byte("payload")) {
		t.Fatalf("round trip: %+v", got)
	}

	rep := &reply{ID: 9, Errno: fserr.ENOENT, Kind: 2, Size: 42, N: 5,
		Data: []byte{1, 2, 3}, Names: []string{"x", "y"}}
	body, err := encodeReply(rep)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := decodeReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if got2.ID != 9 || got2.Errno != fserr.ENOENT || got2.Kind != 2 ||
		got2.Size != 42 || got2.N != 5 || len(got2.Names) != 2 || got2.Names[1] != "y" {
		t.Fatalf("round trip: %+v", got2)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := decodeRequest([]byte{1, 2}); err == nil {
		t.Error("truncated request accepted")
	}
	if _, err := decodeReply([]byte{0}); err == nil {
		t.Error("truncated reply accepted")
	}
	// Trailing bytes.
	body := append(encodeRequest(&request{Op: spec.OpStat, Path: "/"}), 0xFF)
	if _, err := decodeRequest(body); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestPipeFunctional(t *testing.T) {
	client, srv := Pipe(atomfs.New())
	defer srv.Close()
	defer client.Close()
	fstest.Functional(t, client)
}

func TestPipeDifferential(t *testing.T) {
	client, srv := Pipe(atomfs.New())
	defer srv.Close()
	defer client.Close()
	fstest.Differential(t, client, 99, 400)
}

func TestTCPServer(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(memfs.New())
	go srv.Serve(lis)
	defer srv.Close()

	client, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Mkdir(tctx, "/remote"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(tctx, "/remote/f", 0, []byte("x")); !errors.Is(err, fserr.ErrNotExist) {
		t.Fatalf("write missing = %v", err)
	}
	if err := client.Mknod(tctx, "/remote/f"); err != nil {
		t.Fatal(err)
	}
	if n, err := client.Write(tctx, "/remote/f", 0, []byte("over the wire")); err != nil || n != 13 {
		t.Fatalf("write = %d %v", n, err)
	}
	data, err := fsapi.ReadAll(tctx, client, "/remote/f", 5, 3)
	if err != nil || string(data) != "the" {
		t.Fatalf("read = %q %v", data, err)
	}
	names, err := client.Readdir(tctx, "/remote")
	if err != nil || len(names) != 1 {
		t.Fatalf("readdir = %v %v", names, err)
	}

	// A second client sees the same state.
	client2, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	info, err := client2.Stat(tctx, "/remote/f")
	if err != nil || info.Size != 13 {
		t.Fatalf("stat via second client = %+v %v", info, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(atomfs.New())
	go srv.Serve(lis)
	defer srv.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client, err := Dial(lis.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer client.Close()
			fstest.Stress(t, client, 2, 100, int64(g))
		}(g)
	}
	wg.Wait()
}

func TestPipelinedRequestsOneConn(t *testing.T) {
	client, srv := Pipe(atomfs.New())
	defer srv.Close()
	defer client.Close()
	if err := client.Mkdir(tctx, "/d"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := "/d/f" + string(rune('a'+i))
			if err := client.Mknod(tctx, p); err != nil {
				t.Errorf("mknod %s: %v", p, err)
			}
			if _, err := client.Stat(tctx, p); err != nil {
				t.Errorf("stat %s: %v", p, err)
			}
		}(i)
	}
	wg.Wait()
	names, err := client.Readdir(tctx, "/d")
	if err != nil || len(names) != 16 {
		t.Fatalf("readdir = %d %v", len(names), err)
	}
}

func TestClientClosedCalls(t *testing.T) {
	client, srv := Pipe(memfs.New())
	client.Close()
	srv.Close()
	if err := client.Mkdir(tctx, "/x"); err == nil {
		t.Fatal("call on closed client succeeded")
	}
}

// TestMonitoredServer: concurrent remote clients against a monitored
// AtomFS — the dispatch layer must preserve the verified envelope.
func TestMonitoredServer(t *testing.T) {
	mon := core.NewMonitor(core.Config{CheckGoodAFS: true})
	fs := atomfs.New(atomfs.WithMonitor(mon))
	client, srv := Pipe(fs)
	defer srv.Close()
	defer client.Close()
	if err := client.Mkdir(tctx, "/shared"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				p := fmt.Sprintf("/shared/w%d-%d", w, i)
				client.Mknod(tctx, p)
				client.Write(tctx, p, 0, []byte("x"))
				client.Rename(tctx, p, p+"-final")
				client.Unlink(tctx, p+"-final")
			}
		}(w)
	}
	wg.Wait()
	for _, v := range mon.Violations() {
		t.Errorf("violation: %s", v)
	}
	if err := mon.Quiesce(); err != nil {
		t.Fatal(err)
	}
}

// TestUnixSocketTransport serves over a unix socket.
func TestUnixSocketTransport(t *testing.T) {
	sock := t.TempDir() + "/fs.sock"
	lis, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(memfs.New())
	go srv.Serve(lis)
	defer srv.Close()
	client, err := DialNetwork("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Mkdir(tctx, "/via-unix"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Stat(tctx, "/via-unix"); err != nil {
		t.Fatal(err)
	}
}
