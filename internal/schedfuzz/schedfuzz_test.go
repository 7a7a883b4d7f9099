package schedfuzz

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/trace"
)

func entry(op spec.Op, path string, path2 ...string) trace.Entry {
	a := spec.Args{Path: path}
	if len(path2) > 0 {
		a.Path2 = path2[0]
	}
	return trace.Entry{Op: op, Args: a}
}

const testStall = 5 * time.Second

// The engine's core guarantee: a run replayed from its recorded decision
// string (same options) is bit-identical — signature, grant count,
// consumed schedule, and coverage all match.
// fsVariants enumerates the fast-path × prefix-cache combinations the
// engine tests cover.
var fsVariants = []struct{ fast, prefix bool }{
	{false, false}, {true, false}, {false, true}, {true, true},
}

func TestDeterministicReplay(t *testing.T) {
	seeds := scenario.FuzzSeeds()
	for i, threads := range seeds {
		for _, v := range fsVariants {
			s := Seed{Threads: threads, FastPath: v.fast, Prefix: v.prefix}
			if i == 0 {
				s.Faults = []Fault{{Thread: 0, OpIdx: 1, Yield: 3, Kind: FaultCancel}}
			}
			opts := Options{Mode: core.ModeHelpers, RNG: int64(100*i + 7), StallTimeout: testStall}
			first := Execute(s, opts)
			if first.HarnessErr != nil {
				t.Fatalf("seed %d %+v: harness: %v", i, v, first.HarnessErr)
			}
			s.Sched = append([]byte(nil), first.Sched...)
			for round := 0; round < 2; round++ {
				got := Execute(s, opts)
				if got.Signature() != first.Signature() ||
					got.Grants != first.Grants ||
					!bytes.Equal(got.Sched, first.Sched) ||
					!reflect.DeepEqual(got.Cov, first.Cov) {
					t.Fatalf("seed %d %+v round %d: replay diverged: sig %q/%q grants %d/%d sched %d/%d cov %d/%d",
						i, v, round, got.Signature(), first.Signature(), got.Grants, first.Grants,
						len(got.Sched), len(first.Sched), len(got.Cov), len(first.Cov))
				}
			}
		}
	}
}

// Under the correct mode (helpers, safe traversal) the adversarial
// scenario seeds must execute clean across many schedules, fast path on
// and off — the fuzzer's false-positive guard.
func TestCleanHelpersSeeds(t *testing.T) {
	for i, threads := range scenario.FuzzSeeds() {
		for _, v := range fsVariants {
			for rng := int64(0); rng < 8; rng++ {
				s := Seed{Threads: threads, FastPath: v.fast, Prefix: v.prefix}
				res := Execute(s, Options{Mode: core.ModeHelpers, RNG: rng, StallTimeout: testStall})
				if res.HarnessErr != nil {
					t.Fatalf("seed %d %+v rng=%d: harness: %v", i, v, rng, res.HarnessErr)
				}
				if sig := res.Signature(); sig != "" {
					t.Fatalf("seed %d %+v rng=%d: unexpected finding %q (deadlock info: %s)",
						i, v, rng, sig, res.DeadlockInfo)
				}
			}
		}
	}
}

// Regression: a single fast-path stat must not be predicted deadlocked
// (HookFastLock fires before its acquire; claiming ownership at arrival
// made the worker block on itself).
func TestSingleFastStatClean(t *testing.T) {
	s := Seed{Threads: [][]trace.Entry{{entry(spec.OpStat, "/a/f0")}}, FastPath: true}
	for rng := int64(0); rng < 4; rng++ {
		res := Execute(s, Options{RNG: rng, StallTimeout: testStall})
		if sig := res.Signature(); sig != "" {
			t.Fatalf("rng=%d: %q (%s)", rng, sig, res.DeadlockInfo)
		}
	}
}

// Injected cancellation must stay clean under the monitor's
// cancellation-consistency rules: an abort is surfaced as a context
// error, a refusal completes with the linearized result, and the
// transient-fault retry re-runs the op on a fresh context.
func TestFaultInjection(t *testing.T) {
	base := [][]trace.Entry{
		{entry(spec.OpStat, "/a/f0"), entry(spec.OpMknod, "/a/n0")},
		{entry(spec.OpRename, "/a", "/d")},
	}
	for _, kind := range []FaultKind{FaultCancel, FaultDeadline, FaultTransient} {
		for yield := 0; yield <= 8; yield += 2 {
			for rng := int64(0); rng < 4; rng++ {
				s := Seed{
					Threads: base,
					Faults:  []Fault{{Thread: 0, OpIdx: 0, Yield: yield, Kind: kind}},
				}
				res := Execute(s, Options{Mode: core.ModeHelpers, RNG: rng, StallTimeout: testStall})
				if res.HarnessErr != nil {
					t.Fatalf("%v yield=%d rng=%d: harness: %v", kind, yield, rng, res.HarnessErr)
				}
				if sig := res.Signature(); sig != "" {
					t.Fatalf("%v yield=%d rng=%d: finding %q: %v", kind, yield, rng, sig, res.Violations)
				}
			}
		}
	}
}

// The acceptance bug mode: a short fixed-LP campaign must find a
// refinement violation and shrink it to a seed that still reproduces
// the same signature (the shrinker's preservation property).
func TestFixedLPModeIsCaught(t *testing.T) {
	rep := Fuzz(FuzzConfig{
		Budget:   60 * time.Second,
		MaxRuns:  300,
		Seed:     2,
		Mode:     core.ModeFixedLP,
		FastPath: "off",
	})
	if rep.Failure == nil {
		t.Fatalf("fixed-LP campaign came up clean after %d runs", rep.Runs)
	}
	f := rep.Failure
	if f.Signature != core.ViolRefinement.String() {
		t.Fatalf("signature %q, want %q", f.Signature, core.ViolRefinement)
	}
	if got := f.Result.Signature(); got != f.Signature {
		t.Fatalf("shrunk seed replays to %q, want %q", got, f.Signature)
	}
	if f.MinOps > f.OrigOps {
		t.Fatalf("shrinking grew the seed: %d -> %d ops", f.OrigOps, f.MinOps)
	}
	// Independent re-execution (not the one Fuzz cached).
	res := Execute(f.Seed, Options{Mode: core.ModeFixedLP, RNG: f.RNG, StallTimeout: testStall})
	if got := res.Signature(); got != f.Signature {
		t.Fatalf("independent replay of shrunk seed: %q, want %q", got, f.Signature)
	}
}

// Property test: whatever failing variants mutation produces around the
// golden seed, Shrink preserves the failure signature.
func TestShrinkPreservesSignature(t *testing.T) {
	golden := loadGolden(t)
	r := rand.New(rand.NewSource(11))
	checked := 0
	for i := 0; i < 40 && checked < 5; i++ {
		cand := Mutate(golden.Seed.Clone(), r, false, false)
		opts := golden.Options()
		opts.RNG = int64(i)
		opts.StallTimeout = testStall
		res := Execute(cand, opts)
		sig := res.Signature()
		if sig == "" || sig == "harness" {
			continue
		}
		cand.Sched = append([]byte(nil), res.Sched...)
		shrunk, _ := Shrink(cand, opts, sig, 150)
		if got := Execute(shrunk, opts).Signature(); got != sig {
			t.Fatalf("variant %d: shrunk signature %q, want %q", i, got, sig)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("mutation produced no failing variants to shrink")
	}
}

// The repro text form round-trips exactly.
func TestReproRoundTrip(t *testing.T) {
	r := &Repro{
		Seed: Seed{
			Threads: [][]trace.Entry{
				{entry(spec.OpStat, "/a/f0"), entry(spec.OpRename, "/a", "/d")},
				{entry(spec.OpMkdir, "/c/x")},
			},
			Faults:   []Fault{{Thread: 1, OpIdx: 0, Yield: 4, Kind: FaultTransient}},
			Sched:    []byte{0, 3, 255, 17, 0, 1},
			FastPath: true,
			Prefix:   true,
		},
		Mode:   core.ModeFixedLP,
		Unsafe: false,
		RNG:    42,
		Expect: "refinement",
		Notes:  []string{"round-trip test"},
	}
	var buf bytes.Buffer
	if err := WriteRepro(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ParseRepro(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(got.Seed, r.Seed) || got.Mode != r.Mode ||
		got.Unsafe != r.Unsafe || got.RNG != r.RNG || got.Expect != r.Expect {
		t.Fatalf("round trip diverged:\nin:  %+v\nout: %+v", r, got)
	}
}

func loadGolden(t *testing.T) *Repro {
	return loadRepro(t, "fixedlp_min.repro")
}

func loadRepro(t *testing.T, name string) *Repro {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := ParseRepro(f)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// The checked-in minimal counterexample — found and shrunk by cmd/fuzz —
// must keep replaying to the exact Figure-1 refinement violation.
func TestGoldenFixedLPRepro(t *testing.T) {
	r := loadGolden(t)
	if r.Expect != core.ViolRefinement.String() {
		t.Fatalf("golden expects %q, want %q", r.Expect, core.ViolRefinement)
	}
	res, err := r.Replay()
	if err != nil {
		t.Fatal(err)
	}
	kind, ok := core.ParseViolationKind(r.Expect)
	if !ok {
		t.Fatalf("unparseable violation kind %q", r.Expect)
	}
	if len(res.Violations) == 0 || res.Violations[0].Kind != kind {
		t.Fatalf("violations %v, want leading %v", res.Violations, kind)
	}
	// The golden is the canonical Figure 1: one stat, one rename.
	if res.Ops != 2 {
		t.Fatalf("golden runs %d ops, want the 2-op Figure-1 duel", res.Ops)
	}
}

// The checked-in shortcut-vs-rename schedule: thread 0's second create
// enters at the cached /a/b prefix while thread 1's rename of /a is
// interleaved. The entry's stamped detach generations must fail
// validation under the entry lock and the walk must fall back to the
// root — never operating on the detached subtree. The run must be clean
// (monitor + quiescence + lincheck oracle) AND actually exercise the
// fallback: a regression that stops taking shortcuts would also "pass"
// the cleanliness half, so both stats are asserted.
func TestGoldenPrefixRenameRepro(t *testing.T) {
	r := loadRepro(t, "prefix_rename.repro")
	if !r.Seed.Prefix {
		t.Fatal("golden must run with the prefix cache on")
	}
	res, err := r.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShortcutEntries < 1 {
		t.Fatalf("no shortcut entry taken (stats %+v)", res.Stats)
	}
	if res.Stats.ShortcutFallbacks < 1 {
		t.Fatalf("the rename race never forced a shortcut fallback (stats %+v)", res.Stats)
	}
}

// A short clean-mode campaign must make findings of nothing and build
// coverage while at it.
func TestCleanCampaignSmoke(t *testing.T) {
	rep := Fuzz(FuzzConfig{
		Budget:  30 * time.Second,
		MaxRuns: 150,
		Seed:    7,
	})
	if rep.Failure != nil {
		t.Fatalf("clean campaign found %q: seed %s (deadlock info: %s)",
			rep.Failure.Signature, DescribeSeed(rep.Failure.Seed), rep.Failure.Result.DeadlockInfo)
	}
	if rep.Coverage == 0 || rep.Runs == 0 {
		t.Fatalf("campaign did nothing: %+v", rep)
	}
}

// The checked-in ROADMAP-item-6 pair: the TestPrefixMonitoredStress
// "flake" shrunk to a deterministic schedule. A mknod shortcut-enters at
// the cached /a/b chain holding only the entry inode's lock; a rename of
// the (unlocked) ancestor /a commits before the mknod's own LP. Under
// ModeFixedLP nothing may reorder the two, so the mknod's Aop applies on
// the post-rename abstract tree — the paper's Figure-1 phenomenon, and a
// TRUE positive: the violation indicts the fixed-LP discipline, not the
// shortcut. The replay must produce exactly the refinement signature and
// must do so through an admitted shortcut entry.
func TestGoldenPrefixFixedLPOvertake(t *testing.T) {
	r := loadRepro(t, "prefix_fixedlp_overtake.repro")
	if r.Mode != core.ModeFixedLP || !r.Seed.Prefix {
		t.Fatal("golden must run fixedlp with the prefix cache on")
	}
	res, err := r.Replay() // Replay fails unless signature == "refinement"
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShortcutEntries < 1 {
		t.Fatalf("violation did not go through a shortcut entry (stats %+v)", res.Stats)
	}
}

// The helpers-mode twin: byte-identical ops and schedule, ModeHelpers.
// The rename's help set picks up the shortcut-entered mknod (its
// synthesized walk ino-extends the rename's source LockPath) and
// linothers linearizes it first — the run is clean, and the Helped stat
// proves the external LP actually fired rather than the race simply not
// materializing under a drifted schedule.
func TestGoldenPrefixHelpersOvertake(t *testing.T) {
	r := loadRepro(t, "prefix_helpers_overtake.repro")
	if r.Mode != core.ModeHelpers || !r.Seed.Prefix {
		t.Fatal("golden must run helpers with the prefix cache on")
	}
	res, err := r.Replay() // Replay fails unless the run is clean
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Helped < 1 {
		t.Fatalf("no external linearization happened (stats %+v)", res.Stats)
	}
	if res.Stats.ShortcutEntries < 1 {
		t.Fatalf("no shortcut entry taken (stats %+v)", res.Stats)
	}
}

// The checked-in reader-vs-unlink schedule: thread 0's lockless reads
// walk /a/b while thread 1 unlinks and recreates their victim. The run
// must be clean AND both reads must linearize — on the fast path at a
// validated snapshot, or through the lock-coupled slow path after a
// fallback.
func TestGoldenFastPathUnlinkRepro(t *testing.T) {
	r := loadRepro(t, "fastpath_unlink.repro")
	if !r.Seed.FastPath {
		t.Fatal("golden must run with the fast path on")
	}
	res, err := r.Replay()
	if err != nil {
		t.Fatal(err)
	}
	// In this schedule both reads reach the monitor's validation LP,
	// where each either linearizes (FastReads) or is refused and re-runs
	// on the slow path (FastFallbacks).
	if got := res.Stats.FastReads + res.Stats.FastFallbacks; got != 2 {
		t.Fatalf("%d fast-path read outcomes, want both reads (stats %+v)", got, res.Stats)
	}
}

// Repros recorded while epoch-based reclamation existed carry an
// "epoch" directive: "off" still parses (it changes nothing), "on" is
// rejected rather than silently replayed as a different mode.
func TestParseReproLegacyEpoch(t *testing.T) {
	const body = "mode helpers\nfastpath on\nepoch %s\nrng 1\nthread 0 stat /a\n"
	r, err := ParseRepro(strings.NewReader(fmt.Sprintf(body, "off")))
	if err != nil {
		t.Fatalf("legacy \"epoch off\" rejected: %v", err)
	}
	if !r.Seed.FastPath || r.RNG != 1 || r.Seed.Ops() != 1 {
		t.Fatalf("legacy repro parsed wrong: %+v", r)
	}
	_, err = ParseRepro(strings.NewReader(fmt.Sprintf(body, "on")))
	if err == nil || !strings.Contains(err.Error(), "removed") {
		t.Fatalf("\"epoch on\" parsed: err = %v, want a removed-mode error", err)
	}
	var buf bytes.Buffer
	if err := WriteRepro(&buf, r); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "epoch") {
		t.Fatalf("WriteRepro still emits an epoch line:\n%s", buf.String())
	}
}
