package schedfuzz

import (
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// FuzzConfig parameterizes a fuzzing campaign.
type FuzzConfig struct {
	Budget       time.Duration
	Seed         int64
	Threads      int // workers per generated seed (default 3)
	OpsPerThread int // ops per worker (default 4)
	Mode         core.Mode
	Unsafe       bool
	FastPath     string                           // "auto" (default: mutate it), "on", "off"
	Prefix       string                           // write-path prefix cache: "auto" (default), "on", "off"
	FaultProb    float64                          // per-thread fault probability in generated seeds (default 0.3)
	MaxRuns      int                              // 0 = budget-bound only
	ShrinkRuns   int                              // shrink execution cap (default 400)
	Logf         func(format string, args ...any) // nil = silent
}

// Failure is a shrunk, replayable finding.
type Failure struct {
	Seed      Seed
	Signature string
	Result    *RunResult // the shrunk seed's (re-)execution
	// Provenance for the log: sizes before/after shrinking and the
	// executions the shrinker spent.
	OrigOps, MinOps     int
	OrigSched, MinSched int
	ShrinkSpent         int
	RNG                 int64 // the extension seed the failing run used
}

// Repro packages the failure as a replayable repro file body.
func (f *Failure) Repro(mode core.Mode, unsafe bool, notes []string) *Repro {
	return &Repro{
		Seed:   f.Seed,
		Mode:   mode,
		Unsafe: unsafe,
		RNG:    f.RNG,
		Expect: f.Signature,
		Notes:  notes,
	}
}

// Report summarizes a campaign.
type Report struct {
	Runs     int
	Corpus   int
	Coverage int
	Elapsed  time.Duration
	Failure  *Failure // nil = clean campaign
}

// Fuzz runs a coverage-guided campaign: execute the scenario-derived
// corpus plus a few random seeds, then mutate corpus entries, keeping
// mutants that reach new coverage (yield×op pairs, lock-site pairs,
// monitor event kinds). The first finding is shrunk and returned; a
// clean campaign runs out its budget and reports coverage.
func Fuzz(cfg FuzzConfig) *Report {
	if cfg.Threads <= 0 {
		cfg.Threads = 3
	}
	if cfg.OpsPerThread <= 0 {
		cfg.OpsPerThread = 4
	}
	if cfg.FaultProb == 0 {
		cfg.FaultProb = 0.3
	}
	if cfg.ShrinkRuns <= 0 {
		cfg.ShrinkRuns = 400
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	flipFast := cfg.FastPath != "on" && cfg.FastPath != "off"
	fastFor := func(r *rand.Rand) bool {
		switch cfg.FastPath {
		case "on":
			return true
		case "off":
			return false
		}
		return r.Intn(2) == 0
	}
	flipPrefix := cfg.Prefix != "on" && cfg.Prefix != "off"
	prefixFor := func(r *rand.Rand) bool {
		switch cfg.Prefix {
		case "on":
			return true
		case "off":
			return false
		}
		return r.Intn(2) == 0
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()
	deadline := start.Add(cfg.Budget)
	rep := &Report{}
	seen := make(map[uint64]struct{})

	var corpus []Seed
	for _, threads := range scenario.FuzzSeeds() {
		corpus = append(corpus, Seed{Threads: threads, FastPath: fastFor(rng), Prefix: prefixFor(rng)})
	}
	scenarioSeeds := len(corpus)
	for i := 0; i < 4; i++ {
		corpus = append(corpus, RandomSeed(rng, cfg.Threads, cfg.OpsPerThread, fastFor(rng), prefixFor(rng), cfg.FaultProb))
	}
	logf("schedfuzz: corpus %d seeds (%d scenario-derived), budget %v, mode %s, fastpath %s, prefix %s",
		len(corpus), scenarioSeeds, cfg.Budget, modeName(cfg.Mode), cfg.FastPath, cfg.Prefix)

	queue := append([]Seed(nil), corpus...)
	for time.Now().Before(deadline) && (cfg.MaxRuns == 0 || rep.Runs < cfg.MaxRuns) {
		var s Seed
		if len(queue) > 0 {
			s, queue = queue[0], queue[1:]
		} else {
			s = Mutate(corpus[rng.Intn(len(corpus))].Clone(), rng, flipFast, flipPrefix)
			// Occasionally inject a completely fresh seed to escape corpus
			// local optima.
			if rng.Intn(16) == 0 {
				s = RandomSeed(rng, cfg.Threads, cfg.OpsPerThread, fastFor(rng), prefixFor(rng), cfg.FaultProb)
			}
		}
		runRNG := cfg.Seed + int64(rep.Runs)*1000003
		opts := Options{Mode: cfg.Mode, Unsafe: cfg.Unsafe, RNG: runRNG}
		res := Execute(s, opts)
		rep.Runs++
		sig := res.Signature()
		if sig == "harness" {
			logf("schedfuzz: run %d harness error (skipped): %v", rep.Runs, res.HarnessErr)
			continue
		}
		if sig != "" {
			s.Sched = append([]byte(nil), res.Sched...)
			logf("schedfuzz: run %d FAILED (%s): %d ops, %d sched bytes — shrinking",
				rep.Runs, sig, s.Ops(), len(s.Sched))
			origOps, origSched := s.Ops(), len(s.Sched)
			shrunk, spent := Shrink(s, opts, sig, cfg.ShrinkRuns)
			final := Execute(shrunk, opts)
			rep.Failure = &Failure{
				Seed:      shrunk,
				Signature: sig,
				Result:    final,
				OrigOps:   origOps, MinOps: shrunk.Ops(),
				OrigSched: origSched, MinSched: len(shrunk.Sched),
				ShrinkSpent: spent,
				RNG:         runRNG,
			}
			logf("schedfuzz: shrunk to %d ops, %d faults, %d sched bytes in %d runs",
				shrunk.Ops(), len(shrunk.Faults), len(shrunk.Sched), spent)
			break
		}
		if addCoverage(seen, res.Cov) {
			s.Sched = append([]byte(nil), res.Sched...)
			corpus = append(corpus, s)
			// Evict the oldest non-scenario entry once the corpus is large;
			// the scenario seeds stay as permanent mutation roots.
			if len(corpus) > 96 {
				corpus = append(corpus[:scenarioSeeds],
					corpus[scenarioSeeds+1:]...)
			}
		}
		if rep.Runs%200 == 0 {
			logf("schedfuzz: %d runs, %d coverage keys, corpus %d, %v elapsed",
				rep.Runs, len(seen), len(corpus), time.Since(start).Round(time.Millisecond))
		}
	}
	rep.Corpus = len(corpus)
	rep.Coverage = len(seen)
	rep.Elapsed = time.Since(start)
	return rep
}

// addCoverage merges a run's keys into the global set, reporting whether
// anything was new.
func addCoverage(seen map[uint64]struct{}, cov []uint64) bool {
	fresh := false
	for _, k := range cov {
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			fresh = true
		}
	}
	return fresh
}

// DescribeSeed renders a one-line summary for logs.
func DescribeSeed(s Seed) string {
	var b strings.Builder
	for t, prog := range s.Threads {
		if t > 0 {
			b.WriteString(" | ")
		}
		for i, e := range prog {
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(e.Format())
		}
	}
	return b.String()
}
