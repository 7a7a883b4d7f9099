package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSmoke drives all four workloads and their traced runs end to end
// on half-second windows.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		rec, err := runAll([]*workload{w}, smokeParams(1), -1, dir)
		if err != nil {
			t.Fatal(err)
		}
		e, l := rec.Workloads[0].EndToEnd, rec.Workloads[0].PerLayer
		if len(e.Fails) > 0 || len(l.Fails) > 0 || e.Failed > 0 || l.Failed > 0 {
			t.Errorf("%s: gate failed: %v %v", w.name, e.Fails, l.Fails)
		}
		for _, m := range endToEndMetrics {
			if v := e.Metrics[m.Name]; m.Name != "error_rate" && !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.Name, v)
			}
		}
		var shares float64
		for _, layer := range []string{"fuse", "mount", "atomfs", "core", "wal"} {
			shares += l.Metrics[layer+".share"]
		}
		if math.Abs(shares-100) > 1 {
			t.Errorf("%s: layer shares sum to %.2f%%, want 100", w.name, shares)
		}
		for _, m := range perLayerMetrics {
			if _, ok := l.Metrics[m.Name]; !ok {
				t.Errorf("%s: traced run did not report %s", w.name, m.Name)
			}
		}
		if l.Metrics["core.violations"] != 0 {
			t.Errorf("%s: %v CRL-H violations", w.name, l.Metrics["core.violations"])
		}
		if info, err := os.Stat(l.TraceFile); err != nil || info.Size() == 0 {
			t.Errorf("%s: no spans written to %s (%v)", w.name, l.TraceFile, err)
		}
		switch w.name {
		case "net-read":
			if l.Metrics["wal.checkpoints"] != 0 || l.Metrics["fuse.share"] < 50 {
				t.Errorf("net-read: wal did work or fuse is not the larger share: %v", l.Metrics)
			}
		case "net-fileserver":
			// Through the volume shim a cross-volume rename must still be
			// the two-phase protocol: the copy+delete fallback never calls
			// DetachPrepare, so it would leave this count at 0.
			if l.Metrics["mount.cross_renames"] == 0 || l.Metrics["core.helped"] == 0 {
				t.Errorf("net-fileserver: no two-phase cross-volume rename seen: %v", l.Metrics)
			}
		case "local-gitclone":
			if l.Metrics["fuse.share"] != 0 || l.Metrics["wal.bytes_per_user_byte"] <= 1 {
				t.Errorf("local-gitclone: fuse took time or the journal wrote less than the user: %v", l.Metrics)
			}
		}
	}
}

// opStream is the sequence of calls client 0 makes in n iterations of w.
func opStream(t *testing.T, w *workload, seed int64, n int) []string {
	t.Helper()
	ctx := context.Background()
	p := smokeParams(seed)
	st, tree, err := setup(ctx, w, p, rungBare, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	c := newClient(0, st.ns, newTracer(), nil, tree, seed)
	for i := 0; i < n; i++ {
		w.iterate(c, ctx)
	}
	if c.failed > 0 {
		t.Fatalf("%s: %s", w.name, c.firstFail)
	}
	var ops []string
	for _, sp := range c.fs.own {
		ops = append(ops, sp.Op.String()+" "+sp.Path)
	}
	return ops
}

func TestSameSeedSameOpStream(t *testing.T) {
	for _, w := range workloads {
		n := 200
		if !w.wire {
			n = 2
		}
		a, b, other := opStream(t, w, 7, n), opStream(t, w, 7, n), opStream(t, w, 8, n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different op streams", w.name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: two seeds gave the same op stream", w.name)
		}
		if !w.wire && len(a) != n*gitCloneOps {
			t.Errorf("%s: %d ops in %d iterations, want %d each", w.name, len(a), n, gitCloneOps)
		}
	}
}

// TestGateFiresOnWrongByte flips one byte of the population behind the
// benchmark's back. The journal stays consistent, so only the content
// checks can see it: the client's read and the tree walk must both.
func TestGateFiresOnWrongByte(t *testing.T) {
	ctx := context.Background()
	w := workloadByName("net-read")
	p := smokeParams(3)
	st, tree, err := setup(ctx, w, p, rungJournaled, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if fails, _, _ := finish(ctx, st, tree, p.seed, nil); len(fails) > 0 {
		t.Fatalf("gate fails on a clean tree: %v", fails)
	}
	victim := tree.files[2][1][5]
	buf := make([]byte, 1)
	if _, err := st.ns.Read(ctx, victim, 100, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0x40
	if _, err := st.ns.Write(ctx, victim, 100, buf); err != nil {
		t.Fatal(err)
	}
	c := newClient(0, st.ns, nil, nil, tree, p.seed)
	c.readCheck(ctx, victim, []int{fileSize}, []uint64{patternKey(p.seed, victim, 0)})
	fails, failed, _ := finish(ctx, st, tree, p.seed, []*client{c})
	if failed != 1 || len(fails) != 2 {
		t.Errorf("gate after a wrong byte: failed=%d fails=%v, want the client's read and the tree walk to report it", failed, fails)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		e := &endToEnd{Metrics: map[string]float64{
			"ops_per_s": 1000 / scale, "p50_us": 30 * scale, "p999_us": 9000 * scale, "live_heap_mb": 100, "setup_s": 0.5,
		}}
		rec := record{Workloads: []workloadRecord{{Name: "net-read", EndToEnd: e}}}
		b, _ := json.Marshal(rec)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	null, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	a, same, worse := write("a.json", 1), write("same.json", 1.01), write("worse.json", 1.5)
	if ok, err := compareFiles(null, a, same); err != nil || !ok {
		t.Errorf("runs 1%% apart: ok=%v err=%v, want agreement", ok, err)
	}
	if ok, err := compareFiles(null, a, worse); err != nil || ok {
		t.Errorf("a run 50%% worse: ok=%v err=%v, want it marked", ok, err)
	}
	if ok, _ := compareFiles(null, worse, a); !ok {
		t.Errorf("a run 50%% better was marked as a regression")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the root of the repository
// equal to the tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || b.RunSeconds != defaultSeconds {
		t.Errorf("paths %v run_seconds %d, want [bench] and %d", b.Paths, b.RunSeconds, defaultSeconds)
	}
	var want []metricDef
	for _, m := range endToEndMetrics {
		if m.Name != "error_rate" {
			want = append(want, m)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, want) {
		t.Errorf("end_to_end:\n got %+v\nwant %+v", b.EndToEnd, want)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer:\n got %+v\nwant %+v", b.PerLayer, perLayerMetrics)
	}
	var got, wantW []string
	for _, w := range b.Workloads {
		got = append(got, fmt.Sprintf("%s: %s", w.Name, w.Why))
	}
	for _, w := range workloads {
		wantW = append(wantW, fmt.Sprintf("%s: %s", w.name, w.why))
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(got, wantW) {
		t.Errorf("workloads:\n got %q\nwant %q", got, wantW)
	}
}
