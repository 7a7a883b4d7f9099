package schedfuzz

// Crash-schedule fuzzing for the write-ahead journal (DESIGN.md §14).
//
// Where the scheduler fuzzer explores interleavings of concurrent
// operations, the crash fuzzer explores *where in the journal byte
// stream the machine dies*: it runs a sequential program against a
// journaled AtomFS over a wal.Device armed to crash after exactly K
// cumulative written bytes, then recovers from the surviving prefix and
// checks three obligations —
//
//  1. recovery succeeds (a committed-prefix scan never errors, no
//     matter how the tail is torn);
//  2. no acknowledged-durable record is lost (DurableSeq at crash time
//     is a lower bound on the recovered sequence number);
//  3. the recovered abstract state equals the golden prefix state for
//     the recovered sequence number, and the core abstraction relation
//     accepts it against a concrete tree rebuilt from it.
//
// Crash points of interest cluster at record boundaries (the device's
// write marks): K = mark is a clean cut after a write, K = mark-1 tears
// the write's last byte, and interior offsets land mid-record and
// mid-checkpoint. The sweep tries all marks ±1 plus random interiors,
// so torn records, post-append/pre-sync crashes, and crashes during
// checkpoint blob or superblock writes are all exercised.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/atomfs"
	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fstest"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/wal"
)

// crashStoreBlocks sizes the journal device for crash runs: 8192 blocks
// (32 MiB of 4 KiB blocks) holds the longest generated program with or
// without checkpoints.
const crashStoreBlocks = 8192

// CrashSeed is one crash schedule: a sequential program, the journal's
// checkpoint cadence, and the byte offset at which the device dies.
type CrashSeed struct {
	Prog []trace.Entry
	// CkptEvery is wal.Config.CheckpointEvery (0 = never checkpoint).
	CkptEvery int
	// Crash kills the device after this many cumulative written bytes
	// (a write crossing the boundary is torn). Negative = never crash —
	// the dry run used to discover the write marks.
	Crash int64
}

// Clone deep-copies the seed.
func (s CrashSeed) Clone() CrashSeed {
	return CrashSeed{
		Prog:      append([]trace.Entry(nil), s.Prog...),
		CkptEvery: s.CkptEvery,
		Crash:     s.Crash,
	}
}

// CrashResult reports one crash-recovery run.
type CrashResult struct {
	// Written and Marks describe the journal byte stream the program
	// produced (cumulative bytes; marks are post-write offsets). On a
	// crashed run they describe the truncated stream.
	Written int64
	Marks   []int64
	// Issued counts program operations issued before the journal broke
	// (all of them on a dry run).
	Issued int
	// Acked is the highest sequence number the journal acknowledged as
	// durable before the crash — the floor recovery must reach.
	Acked uint64
	// Info is the recovery summary (zero if recovery errored).
	Info wal.RecoveryInfo
	// Verdict classifies the failure: "" clean, "recover" (recovery
	// errored), "durability" (acknowledged record lost), "replay"
	// (recovered state is not the golden prefix state), "relation" (the
	// abstraction relation rejects the recovered tree), "monitor" (the
	// live run itself raised violations), "harness".
	Verdict string
	Detail  string
}

// Signature returns the verdict — the shrinker's preservation target,
// mirroring RunResult.Signature.
func (r *CrashResult) Signature() string { return r.Verdict }

func (r *CrashResult) String() string {
	if r.Verdict == "" {
		return fmt.Sprintf("clean: %d ops, %d bytes, acked %d, recovered %d",
			r.Issued, r.Written, r.Acked, r.Info.LastSeq)
	}
	return fmt.Sprintf("%s: %s", r.Verdict, r.Detail)
}

// ExecuteCrash runs one crash schedule to completion: program, crash,
// recovery, verdict. It is deterministic — same seed, same verdict.
// Like Execute it is a harness execution root with no caller context to
// inherit from. ctxlint:allow
func ExecuteCrash(s CrashSeed) *CrashResult {
	res := &CrashResult{}
	ctx := context.Background()

	dev := wal.NewDevice(block.NewStore(crashStoreBlocks), 0)
	dev.RecordMarks()
	if s.Crash >= 0 {
		dev.CrashAt(s.Crash)
	}
	l := wal.NewLog(dev, wal.Config{CheckpointEvery: s.CkptEvery})
	mon := core.NewMonitor(core.Config{CheckGoodAFS: true})
	fs := atomfs.New(atomfs.WithMonitor(mon), atomfs.WithJournal(l))

	// ref mirrors the journal's shadow: applied in issue order (the run
	// is sequential, so issue order is linearization order is journal
	// order), it defines the golden state after every journaled record.
	ref := spec.New()
	golden := map[uint64]string{0: ref.Key()}
	seq := uint64(0)
	for _, e := range s.Prog {
		if l.Broken() != nil {
			// The device is dead; further appends cannot reach it, and
			// issuing them would only desynchronize golden bookkeeping
			// for ops the journal never saw.
			break
		}
		ret := fstest.ApplyFS(ctx, fs, e.Op, e.Args)
		res.Issued++
		if !e.Op.Mutates() {
			continue
		}
		rret, _ := ref.Apply(e.Op, e.Args)
		if (ret.Err == nil) != (rret.Err == nil) {
			res.Verdict = "harness"
			res.Detail = fmt.Sprintf("op %d (%s): concrete err %v, spec err %v",
				res.Issued-1, e.Format(), ret.Err, rret.Err)
			return res
		}
		if rret.Err == nil {
			seq++
			golden[seq] = ref.Key()
		}
	}
	res.Written = dev.Written()
	res.Marks = dev.Marks()
	res.Acked = l.DurableSeq()

	if vs := mon.Violations(); len(vs) > 0 {
		res.Verdict = "monitor"
		res.Detail = vs[0].String()
		return res
	}

	recovered, info, err := wal.Recover(dev, nil)
	if err != nil {
		res.Verdict = "recover"
		res.Detail = fmt.Sprintf("crash@%d: %v", s.Crash, err)
		return res
	}
	res.Info = info
	if info.LastSeq < res.Acked {
		res.Verdict = "durability"
		res.Detail = fmt.Sprintf("crash@%d: recovered seq %d < acknowledged %d",
			s.Crash, info.LastSeq, res.Acked)
		return res
	}
	want, ok := golden[info.LastSeq]
	if !ok {
		res.Verdict = "replay"
		res.Detail = fmt.Sprintf("crash@%d: recovered seq %d was never issued (max %d)",
			s.Crash, info.LastSeq, seq)
		return res
	}
	if got := recovered.Key(); got != want {
		res.Verdict = "replay"
		res.Detail = fmt.Sprintf("crash@%d: recovered state at seq %d diverges from golden prefix:\n got %s\nwant %s",
			s.Crash, info.LastSeq, got, want)
		return res
	}

	// Discharge the abstraction relation over the recovered tree: build
	// a fresh monitored AtomFS whose contents are the recovered state,
	// quiesce it (the monitor checks the relation against its concrete
	// tree), and compare the rebuilt abstract state structurally.
	m2 := core.NewMonitor(core.Config{CheckGoodAFS: true})
	fs2 := atomfs.New(atomfs.WithMonitor(m2))
	for _, e := range trace.FromState(recovered) {
		if ret := fstest.ApplyFS(ctx, fs2, e.Op, e.Args); ret.Err != nil {
			res.Verdict = "relation"
			res.Detail = fmt.Sprintf("recovered state not concretely realizable: %s: %v",
				e.Format(), ret.Err)
			return res
		}
	}
	if err := m2.Quiesce(); err != nil {
		res.Verdict = "relation"
		res.Detail = fmt.Sprintf("quiesce over rebuilt tree: %v", err)
		return res
	}
	if vs := m2.Violations(); len(vs) > 0 {
		res.Verdict = "relation"
		res.Detail = vs[0].String()
		return res
	}
	if err := core.CompareStates(recovered, m2.AbstractState(), nil); err != nil {
		res.Verdict = "relation"
		res.Detail = err.Error()
		return res
	}
	return res
}

// crashCandidates derives the crash offsets worth trying from a dry
// run: every write mark (clean cut), every mark-1 (torn final byte),
// mark+1 (first byte of the next write), plus nRandom interior offsets.
// Candidates are deduplicated and bounded to [0, written].
func crashCandidates(dry *CrashResult, r *rand.Rand, nRandom int) []int64 {
	seen := make(map[int64]struct{})
	var out []int64
	add := func(k int64) {
		if k < 0 || k > dry.Written {
			return
		}
		if _, ok := seen[k]; ok {
			return
		}
		seen[k] = struct{}{}
		out = append(out, k)
	}
	for _, m := range dry.Marks {
		add(m - 1)
		add(m)
		add(m + 1)
	}
	if r != nil {
		for i := 0; i < nRandom && dry.Written > 0; i++ {
			add(r.Int63n(dry.Written))
		}
	}
	return out
}

// RandomCrashProg generates a sequential mutation-heavy program: a few
// fixed directories, then a mix of the generic op stream and the
// rename-heavy explorer (reads are skipped — they never journal).
func RandomCrashProg(r *rand.Rand, n int) []trace.Entry {
	prog := []trace.Entry{
		{Op: spec.OpMkdir, Args: spec.Args{Path: "/a"}},
		{Op: spec.OpMkdir, Args: spec.Args{Path: "/b"}},
	}
	st := fstest.NewOpStream(r.Int63())
	for len(prog) < n {
		var op spec.Op
		var args spec.Args
		if r.Intn(3) == 0 {
			op, args = explore.RenameHeavy(r)
		} else {
			op, args = st.Next()
		}
		switch op {
		case spec.OpStat, spec.OpRead, spec.OpReaddir:
			continue
		}
		prog = append(prog, trace.Entry{Op: op, Args: args})
	}
	return prog
}

// CrashFuzzConfig parameterizes a crash-fuzzing campaign.
type CrashFuzzConfig struct {
	Budget     time.Duration
	Seed       int64
	Ops        int // program length (default 24)
	MaxRuns    int // 0 = budget-bound only
	ShrinkRuns int // shrink execution cap (default 300)
	Logf       func(format string, args ...any)
}

// CrashFailure is a shrunk, replayable crash-schedule finding.
type CrashFailure struct {
	Seed            CrashSeed
	Signature       string
	Result          *CrashResult
	OrigOps, MinOps int
	ShrinkSpent     int
}

// Repro packages the failure as a replayable repro file body; the
// program is stored as thread 0.
func (f *CrashFailure) Repro(notes []string) *Repro {
	return &Repro{
		Seed:      Seed{Threads: [][]trace.Entry{f.Seed.Prog}},
		Mode:      core.ModeHelpers,
		Journal:   true,
		CkptEvery: f.Seed.CkptEvery,
		Crash:     f.Seed.Crash,
		Expect:    f.Signature,
		Notes:     notes,
	}
}

// CrashReport summarizes a campaign.
type CrashReport struct {
	Runs     int // crash executions (dry runs included)
	Programs int // distinct programs swept
	Elapsed  time.Duration
	Failure  *CrashFailure // nil = clean campaign
}

// FuzzCrash runs a crash-fuzzing campaign: generate a program, dry-run
// it to learn the journal's write marks, then crash it at every mark ±1
// and a sample of interior offsets, for both no-checkpoint and
// checkpoint-heavy configurations. The first non-clean verdict is
// shrunk to a minimal program + crash offset.
func FuzzCrash(cfg CrashFuzzConfig) *CrashReport {
	if cfg.Ops <= 0 {
		cfg.Ops = 24
	}
	if cfg.ShrinkRuns <= 0 {
		cfg.ShrinkRuns = 300
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()
	deadline := start.Add(cfg.Budget)
	rep := &CrashReport{}

	// Alternate checkpoint cadences so both the plain append path and
	// the checkpoint/truncate path see every crash class.
	cadences := []int{0, 3}
	for time.Now().Before(deadline) && (cfg.MaxRuns == 0 || rep.Runs < cfg.MaxRuns) {
		prog := RandomCrashProg(rng, cfg.Ops)
		rep.Programs++
		for _, ck := range cadences {
			dry := ExecuteCrash(CrashSeed{Prog: prog, CkptEvery: ck, Crash: -1})
			rep.Runs++
			if sig := dry.Signature(); sig != "" {
				// Even the crash-free run misbehaved; report it with the
				// crash point disabled.
				rep.Failure = shrinkCrashFailure(CrashSeed{Prog: prog, CkptEvery: ck, Crash: -1}, sig, cfg.ShrinkRuns, rep, logf)
				rep.Elapsed = time.Since(start)
				return rep
			}
			for _, k := range crashCandidates(dry, rng, 8) {
				if !time.Now().Before(deadline) || (cfg.MaxRuns > 0 && rep.Runs >= cfg.MaxRuns) {
					break
				}
				s := CrashSeed{Prog: prog, CkptEvery: ck, Crash: k}
				res := ExecuteCrash(s)
				rep.Runs++
				if sig := res.Signature(); sig != "" && sig != "harness" {
					logf("crashfuzz: FAILED (%s) at crash@%d ckpt=%d: %s — shrinking",
						sig, k, ck, res.Detail)
					rep.Failure = shrinkCrashFailure(s, sig, cfg.ShrinkRuns, rep, logf)
					rep.Elapsed = time.Since(start)
					return rep
				}
			}
		}
		if rep.Programs%8 == 0 {
			logf("crashfuzz: %d programs, %d crash points, %v elapsed",
				rep.Programs, rep.Runs, time.Since(start).Round(time.Millisecond))
		}
	}
	rep.Elapsed = time.Since(start)
	return rep
}

func shrinkCrashFailure(s CrashSeed, sig string, budget int, rep *CrashReport, logf func(string, ...any)) *CrashFailure {
	orig := len(s.Prog)
	shrunk, spent := ShrinkCrash(s, sig, budget)
	rep.Runs += spent
	final := ExecuteCrash(shrunk)
	rep.Runs++
	logf("crashfuzz: shrunk %d -> %d ops (crash@%d) in %d runs",
		orig, len(shrunk.Prog), shrunk.Crash, spent)
	return &CrashFailure{
		Seed:      shrunk,
		Signature: sig,
		Result:    final,
		OrigOps:   orig, MinOps: len(shrunk.Prog),
		ShrinkSpent: spent,
	}
}

// ShrinkCrash minimizes a failing crash schedule with a ddmin-style
// pass over the program. Dropping operations moves every byte offset
// after them, so each candidate program is re-swept: a reduction is
// kept if *some* crash point near a write mark still produces the same
// signature, and the seed's crash offset is rebound to it. Returns the
// minimized seed and the executions spent.
func ShrinkCrash(s CrashSeed, sig string, budget int) (CrashSeed, int) {
	spent := 0
	// reproduces re-locates a crash offset for the candidate program,
	// preferring the previous offset, then boundary candidates.
	reproduces := func(c CrashSeed) (CrashSeed, bool) {
		if c.Crash < 0 {
			// Crash-free failure: a single execution decides.
			if spent >= budget {
				return c, false
			}
			spent++
			return c, ExecuteCrash(c).Signature() == sig
		}
		if spent >= budget {
			return c, false
		}
		dry := ExecuteCrash(CrashSeed{Prog: c.Prog, CkptEvery: c.CkptEvery, Crash: -1})
		spent++
		cands := crashCandidates(dry, nil, 0)
		// Try the inherited offset first — it often survives prefix-only
		// reductions.
		if c.Crash <= dry.Written {
			cands = append([]int64{c.Crash}, cands...)
		}
		for _, k := range cands {
			if spent >= budget {
				return c, false
			}
			spent++
			if ExecuteCrash(CrashSeed{Prog: c.Prog, CkptEvery: c.CkptEvery, Crash: k}).Signature() == sig {
				c.Crash = k
				return c, true
			}
		}
		return c, false
	}

	cur := s.Clone()
	for chunk := len(cur.Prog) / 2; chunk > 0; {
		removed := false
		for start := 0; start+chunk <= len(cur.Prog) && spent < budget; {
			cand := CrashSeed{
				Prog:      append(append([]trace.Entry{}, cur.Prog[:start]...), cur.Prog[start+chunk:]...),
				CkptEvery: cur.CkptEvery,
				Crash:     cur.Crash,
			}
			if c2, ok := reproduces(cand); ok {
				cur = c2
				removed = true
			} else {
				start += chunk
			}
		}
		if spent >= budget {
			break
		}
		if !removed || chunk > len(cur.Prog) {
			chunk /= 2
		}
	}
	return cur, spent
}
