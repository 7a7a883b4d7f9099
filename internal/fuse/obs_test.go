package fuse

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/atomfs"
	"repro/internal/fsapi"
	"repro/internal/obs"
	"repro/internal/spec"
)

// obsPipe is Pipe with a registry attached before the connection starts,
// so the dispatch loop observes the instruments from its first request.
func obsPipe(t *testing.T, reg *obs.Registry) (*Client, *Server) {
	t.Helper()
	fs := atomfs.New(atomfs.WithFastPath(), atomfs.WithObs(reg))
	srv := NewServer(fs)
	srv.SetObs(reg)
	c1, c2 := net.Pipe()
	srv.mu.Lock()
	srv.conns[c2] = func() {}
	srv.wg.Add(1)
	srv.mu.Unlock()
	go func() {
		defer srv.wg.Done()
		srv.ServeConn(c2)
	}()
	return NewClient(c1), srv
}

// TestDebugEndpointsUnderTraffic serves the full debug mux over the
// shared registry of an instrumented daemon (file system + dispatch
// loop), drives concurrent client traffic, and asserts every endpoint
// family returns a parseable payload while requests are in flight.
func TestDebugEndpointsUnderTraffic(t *testing.T) {
	reg := obs.NewRegistry()
	client, srv := obsPipe(t, reg)
	defer srv.Close()
	defer client.Close()

	if err := client.Mkdir(tctx, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := client.Mknod(tctx, "/d/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(tctx, "/d/f", 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}

	// Background traffic for the duration of the endpoint probes.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := client.Stat(tctx, "/d/f"); err != nil {
					return
				}
				if _, err := fsapi.ReadAll(tctx, client, "/d/f", 0, 7); err != nil {
					return
				}
				if _, err := client.Readdir(tctx, "/d"); err != nil {
					return
				}
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	mux := obs.NewDebugMux(reg, func(op uint8) string { return spec.Op(op).String() })
	ts := httptest.NewServer(mux)
	defer ts.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	// /metrics: Prometheus text exposition with both layers' series.
	metrics, ctype := get("/metrics")
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("/metrics content type %q", ctype)
	}
	for _, want := range []string{
		`fuse_requests_total{op="stat"}`,
		`atomfs_ops_total{op="stat"}`,
		"fuse_request_ns_count",
		"fuse_conns 1",
		"# TYPE",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(metrics, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("/metrics line not \"name value\": %q", line)
		}
	}

	// /debug/vars: one JSON object, numeric leaves.
	vars, ctype := get("/debug/vars")
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("/debug/vars content type %q", ctype)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(vars), &parsed); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if v, ok := parsed[`fuse_requests_total{op="stat"}`].(float64); !ok || v <= 0 {
		t.Errorf("/debug/vars fuse stat counter = %v", parsed[`fuse_requests_total{op="stat"}`])
	}

	// /debug/flightrec: the request lifecycle appears in order somewhere.
	flight, _ := get("/debug/flightrec")
	qi := strings.Index(flight, "fuse-queue")
	di := strings.Index(flight, "fuse-dispatch")
	ri := strings.Index(flight, "fuse-reply")
	if qi < 0 || di < 0 || ri < 0 {
		t.Fatalf("/debug/flightrec missing request lifecycle events:\n%.500s", flight)
	}

	// /debug/pprof/: the profile index must render.
	pprofIdx, _ := get("/debug/pprof/")
	if !strings.Contains(pprofIdx, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles:\n%.300s", pprofIdx)
	}
}

// TestServerGaugesSettle checks that queue/inflight gauges return to zero
// once traffic stops and connections close (no leaked increments on any
// reply path).
func TestServerGaugesSettle(t *testing.T) {
	reg := obs.NewRegistry()
	client, srv := obsPipe(t, reg)
	if err := client.Mknod(tctx, "/f"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				client.Stat(tctx, "/f")                 //nolint:errcheck
				fsapi.ReadAll(tctx, client, "/f", 0, 1) //nolint:errcheck
				client.Readdir(tctx, "/")               //nolint:errcheck
				client.Stat(tctx, "/missing")           //nolint:errcheck // error replies count too
			}
		}()
	}
	wg.Wait()
	client.Close()
	srv.Close()
	if v := reg.Gauge("fuse_queued").Value(); v != 0 {
		t.Errorf("fuse_queued = %d after quiesce, want 0", v)
	}
	if v := reg.Gauge("fuse_inflight").Value(); v != 0 {
		t.Errorf("fuse_inflight = %d after quiesce, want 0", v)
	}
	if v := reg.Gauge("fuse_conns").Value(); v != 0 {
		t.Errorf("fuse_conns = %d after close, want 0", v)
	}
	if reg.Counter(`fuse_requests_total{op="stat"}`).Value() == 0 {
		t.Error("stat requests not counted")
	}
}
