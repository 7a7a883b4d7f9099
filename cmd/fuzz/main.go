// Command fuzz runs the deterministic schedule fuzzer (internal/schedfuzz)
// against the monitored AtomFS: seeded op programs on virtual threads,
// every interleaving decision scripted or PRNG-extended, faults injected
// at exact yield points, coverage-guided mutation, and automatic
// shrinking of the first finding to a minimal repro that cmd/fsreplay
// can re-execute bit-identically.
//
// Usage:
//
//	fuzz -budget 30s                                # CI smoke: clean tree must stay clean
//	fuzz -bug fixedlp -expect-violation -repro r.txt # negative test: find Figure 1, shrink it
//	fuzz -crash -budget 30s                          # crash-schedule fuzzing of the WAL
//	fsreplay -repro r.txt                            # replay the shrunk counterexample
//
// With -crash the campaign explores journal crash schedules instead of
// thread interleavings: sequential programs against a journaled AtomFS
// whose device dies at chosen byte offsets (torn records, mid-checkpoint
// crashes), each recovery checked against the golden prefix state and
// the abstraction relation (see internal/schedfuzz ExecuteCrash).
//
// Exit codes: 0 = the campaign matched expectations (clean without
// -expect-violation, a finding with it), 1 = the opposite, 2 = usage or
// harness errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/schedfuzz"
	"repro/internal/spec"
)

func main() {
	budget := flag.Duration("budget", 30*time.Second, "fuzzing time budget")
	seed := flag.Int64("seed", 1, "campaign PRNG seed")
	threads := flag.Int("threads", 3, "virtual threads per generated seed")
	ops := flag.Int("ops", 4, "ops per thread in generated seeds")
	bug := flag.String("bug", "", "re-introduce a known bug: fixedlp (Figure 1) or unsafe (Figure 8)")
	fastpath := flag.String("fastpath", "auto", "lockless read fast path: auto, on, off")
	prefix := flag.String("prefix", "auto", "write-path prefix cache: auto, on, off")
	faultProb := flag.Float64("faults", 0.3, "per-thread fault-injection probability in generated seeds")
	maxRuns := flag.Int("max-runs", 0, "stop after this many executions (0 = budget only)")
	reproOut := flag.String("repro", "", "write the shrunk repro of a finding to this file")
	expectViolation := flag.Bool("expect-violation", false, "invert the exit code: succeed only if a finding was made")
	crash := flag.Bool("crash", false, "fuzz journal crash schedules instead of thread interleavings")
	crashOps := flag.Int("crash-ops", 24, "program length for -crash campaigns")
	verbose := flag.Bool("v", false, "verbose progress")
	flag.Parse()

	if *crash {
		os.Exit(crashMain(*budget, *seed, *crashOps, *maxRuns, *reproOut, *expectViolation, *verbose))
	}

	cfg := schedfuzz.FuzzConfig{
		Budget:       *budget,
		Seed:         *seed,
		Threads:      *threads,
		OpsPerThread: *ops,
		FastPath:     *fastpath,
		Prefix:       *prefix,
		FaultProb:    *faultProb,
		MaxRuns:      *maxRuns,
	}
	switch *bug {
	case "":
	case "fixedlp":
		cfg.Mode = core.ModeFixedLP
	case "unsafe":
		cfg.Unsafe = true
	default:
		fmt.Fprintf(os.Stderr, "unknown -bug %q (want fixedlp or unsafe)\n", *bug)
		os.Exit(2)
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	rep := schedfuzz.Fuzz(cfg)
	if rep.Failure == nil {
		fmt.Printf("fuzz: clean — %d runs, %d coverage keys, corpus %d, %v\n",
			rep.Runs, rep.Coverage, rep.Corpus, rep.Elapsed.Round(time.Millisecond))
		if *expectViolation {
			fmt.Fprintln(os.Stderr, "fuzz: expected a violation but the campaign came up clean")
			os.Exit(1)
		}
		return
	}

	f := rep.Failure
	fmt.Printf("fuzz: FINDING %q after %d runs (%v)\n", f.Signature, rep.Runs, rep.Elapsed.Round(time.Millisecond))
	fmt.Printf("  shrunk %d→%d ops, %d→%d sched bytes in %d extra runs\n",
		f.OrigOps, f.MinOps, f.OrigSched, f.MinSched, f.ShrinkSpent)
	fmt.Printf("  minimal seed: %s\n", schedfuzz.DescribeSeed(f.Seed))
	for _, v := range f.Result.Violations {
		fmt.Printf("  violation: %s\n", v)
	}

	if *reproOut != "" {
		notes := []string{
			fmt.Sprintf("found by cmd/fuzz -seed %d (bug=%s fastpath=%s prefix=%s) after %d runs", *seed, *bug, *fastpath, *prefix, rep.Runs),
			fmt.Sprintf("shrunk %d->%d ops; replay: fsreplay -repro <this file>", f.OrigOps, f.MinOps),
		}
		if ce := f.Result.Counterexample; ce != nil {
			var b strings.Builder
			ce.Render(&b, func(op uint8) string { return spec.Op(op).String() })
			notes = append(notes, b.String())
		}
		r := f.Repro(cfg.Mode, cfg.Unsafe, notes)
		out, err := os.Create(*reproOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		werr := schedfuzz.WriteRepro(out, r)
		if cerr := out.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(2)
		}
		fmt.Printf("  repro written to %s\n", *reproOut)
	}
	if *expectViolation {
		return
	}
	os.Exit(1)
}

// crashMain runs a crash-schedule campaign and returns the exit code.
func crashMain(budget time.Duration, seed int64, ops, maxRuns int, reproOut string, expectViolation, verbose bool) int {
	cfg := schedfuzz.CrashFuzzConfig{
		Budget:  budget,
		Seed:    seed,
		Ops:     ops,
		MaxRuns: maxRuns,
	}
	if verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	rep := schedfuzz.FuzzCrash(cfg)
	if rep.Failure == nil {
		fmt.Printf("fuzz -crash: clean — %d programs, %d crash points, %v\n",
			rep.Programs, rep.Runs, rep.Elapsed.Round(time.Millisecond))
		if expectViolation {
			fmt.Fprintln(os.Stderr, "fuzz -crash: expected a finding but the campaign came up clean")
			return 1
		}
		return 0
	}

	f := rep.Failure
	fmt.Printf("fuzz -crash: FINDING %q after %d runs (%v)\n", f.Signature, rep.Runs, rep.Elapsed.Round(time.Millisecond))
	fmt.Printf("  shrunk %d→%d ops (crash@%d, ckpt %d) in %d extra runs\n",
		f.OrigOps, f.MinOps, f.Seed.Crash, f.Seed.CkptEvery, f.ShrinkSpent)
	fmt.Printf("  %s\n", f.Result)

	if reproOut != "" {
		notes := []string{
			fmt.Sprintf("found by cmd/fuzz -crash -seed %d after %d runs", seed, rep.Runs),
			fmt.Sprintf("shrunk %d->%d ops; replay: fsreplay -repro <this file>", f.OrigOps, f.MinOps),
			f.Result.Detail,
		}
		out, err := os.Create(reproOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		werr := schedfuzz.WriteRepro(out, f.Repro(notes))
		if cerr := out.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			return 2
		}
		fmt.Printf("  repro written to %s\n", reproOut)
	}
	if expectViolation {
		return 0
	}
	return 1
}
