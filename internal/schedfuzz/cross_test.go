package schedfuzz

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/trace"
)

// crossCommitSeed: thread 0 moves the populated /a/b across the mount to
// a fresh name (the two-phase commit path) and then reads it back at its
// new home; thread 1 contends on both sides — a stat inside the source
// subtree that the quiescing DFS must wait out or overtake, and one on
// the destination volume.
func crossCommitSeed() Seed {
	return Seed{Threads: [][]trace.Entry{
		{
			entry(spec.OpRename, "/a/b", CrossMount+"/sub"),
			entry(spec.OpStat, CrossMount+"/sub/f0"),
		},
		{
			entry(spec.OpStat, "/a/b/f0"),
			entry(spec.OpStat, CrossMount+"/d/g0"),
			entry(spec.OpMknod, CrossMount+"/d/n0"),
		},
	}}
}

// crossAbortSeed: thread 0 renames /a/b onto the nonempty /m/d — the
// destination's victim check fails with ENOTEMPTY, driving the two-phase
// abort path — and then verifies the source subtree survived untouched.
func crossAbortSeed() Seed {
	return Seed{Threads: [][]trace.Entry{
		{
			entry(spec.OpRename, "/a/b", CrossMount+"/d"),
			entry(spec.OpStat, "/a/b/f0"),
		},
		{
			entry(spec.OpStat, CrossMount+"/d/g0"),
			entry(spec.OpMknod, "/a/b/n1"),
		},
	}}
}

// The commit path must be clean across schedules and FS variants, and
// must actually commit: the source monitor counts the cross commit and
// the externally-linearized detach (the helped completion).
func TestCrossCommitClean(t *testing.T) {
	for _, v := range fsVariants {
		for rng := int64(0); rng < 8; rng++ {
			s := crossCommitSeed()
			s.FastPath, s.Prefix = v.fast, v.prefix
			res := ExecuteCross(s, Options{Mode: core.ModeHelpers, RNG: rng, StallTimeout: testStall})
			if res.HarnessErr != nil {
				t.Fatalf("%+v rng=%d: harness: %v", v, rng, res.HarnessErr)
			}
			if sig := res.Signature(); sig != "" {
				t.Fatalf("%+v rng=%d: finding %q: %v (deadlock: %s; oracle: %v)",
					v, rng, sig, res.Violations, res.DeadlockInfo, res.OracleErr)
			}
			if res.VolStats[0].CrossCommits != 1 {
				t.Fatalf("%+v rng=%d: CrossCommits = %d, want 1 (stats %+v)",
					v, rng, res.VolStats[0].CrossCommits, res.VolStats[0])
			}
			if res.VolStats[0].Helped < 1 {
				t.Fatalf("%+v rng=%d: detach was never externally linearized (stats %+v)",
					v, rng, res.VolStats[0])
			}
		}
	}
}

// The abort path must be clean across schedules and FS variants, must
// actually abort (source monitor counts it), and must leave both volumes
// consistent — the quiescent comparison and the namespace-level
// linearizability check run on every clean schedule.
func TestCrossAbortClean(t *testing.T) {
	for _, v := range fsVariants {
		for rng := int64(0); rng < 8; rng++ {
			s := crossAbortSeed()
			s.FastPath, s.Prefix = v.fast, v.prefix
			res := ExecuteCross(s, Options{Mode: core.ModeHelpers, RNG: rng, StallTimeout: testStall})
			if res.HarnessErr != nil {
				t.Fatalf("%+v rng=%d: harness: %v", v, rng, res.HarnessErr)
			}
			if sig := res.Signature(); sig != "" {
				t.Fatalf("%+v rng=%d: finding %q: %v (deadlock: %s; oracle: %v)",
					v, rng, sig, res.Violations, res.DeadlockInfo, res.OracleErr)
			}
			if res.VolStats[0].CrossAborts != 1 {
				t.Fatalf("%+v rng=%d: CrossAborts = %d, want 1 (stats %+v)",
					v, rng, res.VolStats[0].CrossAborts, res.VolStats[0])
			}
		}
	}
}

// Cross-mode runs replay bit-identically from their recorded decision
// strings — the same determinism contract as single-volume mode.
func TestCrossDeterministicReplay(t *testing.T) {
	for i, mk := range []func() Seed{crossCommitSeed, crossAbortSeed} {
		s := mk()
		s.FastPath, s.Prefix = true, true
		opts := Options{Mode: core.ModeHelpers, RNG: int64(31 + i), StallTimeout: testStall}
		first := ExecuteCross(s, opts)
		if first.HarnessErr != nil {
			t.Fatalf("seed %d: harness: %v", i, first.HarnessErr)
		}
		s.Sched = append([]byte(nil), first.Sched...)
		got := ExecuteCross(s, opts)
		if got.Signature() != first.Signature() || got.Grants != first.Grants {
			t.Fatalf("seed %d: replay diverged: sig %q/%q grants %d/%d",
				i, got.Signature(), first.Signature(), got.Grants, first.Grants)
		}
	}
}

// Randomized sweep: generated cross seeds (cross renames confined to
// thread 0, same-volume traffic on the others, occasional injected
// cancellations) must stay clean under the helpers monitor across every
// variant combination.
func TestCrossRandomSweep(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 24; i++ {
		v := fsVariants[i%len(fsVariants)]
		s := RandomCrossSeed(r, 3, 3, v.fast, v.prefix, 0.2)
		res := ExecuteCross(s, Options{Mode: core.ModeHelpers, RNG: int64(i), StallTimeout: testStall})
		if res.HarnessErr != nil {
			t.Fatalf("sweep %d %+v: harness: %v\nseed: %s", i, v, res.HarnessErr, DescribeSeed(s))
		}
		if sig := res.Signature(); sig != "" {
			t.Fatalf("sweep %d %+v: finding %q: %v (deadlock: %s; oracle: %v)\nseed: %s",
				i, v, sig, res.Violations, res.DeadlockInfo, res.OracleErr, DescribeSeed(s))
		}
	}
}

// The checked-in two-phase ABORT schedule: the destination victim check
// fails mid-protocol with the source spine held and the record prepared;
// CrossAbort resolves the source descriptor as the composed failure and
// the source volume unwinds without a single concrete mutation. The
// replay must be clean and must go through an actual abort.
func TestGoldenCrossAbortRepro(t *testing.T) {
	r := loadRepro(t, "cross_twophase_abort.repro")
	if !r.Cross {
		t.Fatal("golden must run in cross mode")
	}
	res, err := r.Replay() // Replay fails unless the run is clean
	if err != nil {
		t.Fatal(err)
	}
	if res.VolStats[0].CrossAborts < 1 {
		t.Fatalf("no cross abort happened (src stats %+v)", res.VolStats[0])
	}
}

// The commit twin: same namespace, fresh destination name. The source
// detach is externally linearized by the destination's HelpCommit and
// joins the source Helplist until End — Helped must be nonzero.
func TestGoldenCrossCommitRepro(t *testing.T) {
	r := loadRepro(t, "cross_twophase_commit.repro")
	if !r.Cross {
		t.Fatal("golden must run in cross mode")
	}
	res, err := r.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if res.VolStats[0].CrossCommits < 1 || res.VolStats[0].Helped < 1 {
		t.Fatalf("commit path not exercised (src stats %+v)", res.VolStats[0])
	}
}
