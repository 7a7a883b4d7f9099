// Command benchdiff compares a fresh benchjson report against a
// committed baseline and fails on regressions. Records are matched by
// name; a cell regresses when its ns/op exceeds the baseline by more
// than the threshold (default 15%). Cells present on only one side are
// reported but never fail the run — the matrix is allowed to grow.
//
// A repeatable -pair "A<=B" flag adds cross-cell guards evaluated
// against the CURRENT report alone: cell A's ns/op must not exceed cell
// B's by more than the threshold. This is how the durability win is
// pinned — group commit must not lose to per-op flushing on the same
// workload, regardless of how both drift against the baseline:
//
//	benchdiff -base BENCH_wal.json -cur out.json \
//	  -pair "wal/group-commit/parallel-create-8thr/group<=wal/group-commit/parallel-create-8thr/nogroup"
//
// The nightly CI job runs:
//
//	benchjson -suite writepath -o /tmp/writepath.json
//	benchdiff -base BENCH_writepath.json -cur /tmp/writepath.json
//
// Usage:
//
//	benchdiff -base BENCH_writepath.json -cur out.json [-threshold 0.15] [-pair "A<=B"]...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// pairList collects repeatable -pair "A<=B" guards.
type pairList []string

func (p *pairList) String() string { return strings.Join(*p, ",") }
func (p *pairList) Set(v string) error {
	if !strings.Contains(v, "<=") {
		return fmt.Errorf("pair %q: want \"A<=B\"", v)
	}
	*p = append(*p, v)
	return nil
}

type record struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

type report struct {
	Results []record `json:"results"`
}

func load(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]float64, len(rep.Results))
	for _, r := range rep.Results {
		m[r.Name] = r.NsPerOp
	}
	return m, nil
}

func main() {
	base := flag.String("base", "BENCH_writepath.json", "baseline report")
	cur := flag.String("cur", "", "current report to compare (required)")
	threshold := flag.Float64("threshold", 0.15, "allowed ns/op regression fraction")
	var pairs pairList
	flag.Var(&pairs, "pair", "cross-cell guard \"A<=B\" on the current report (repeatable)")
	flag.Parse()
	if *cur == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -cur is required")
		os.Exit(2)
	}

	baseline, err := load(*base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	current, err := load(*cur)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	var regressions int
	for _, name := range names {
		b := baseline[name]
		c, ok := current[name]
		if !ok {
			fmt.Printf("%-52s MISSING (baseline %.1f ns/op)\n", name, b)
			continue
		}
		delta := (c - b) / b
		status := "ok"
		if delta > *threshold {
			status = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-52s %10.1f -> %10.1f ns/op  %+6.1f%%  %s\n",
			name, b, c, 100*delta, status)
	}
	var added []string
	for name := range current {
		if _, ok := baseline[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Printf("%-52s NEW (%.1f ns/op)\n", name, current[name])
	}

	for _, pr := range pairs {
		a, b, _ := strings.Cut(pr, "<=")
		av, aok := current[a]
		bv, bok := current[b]
		if !aok || !bok {
			fmt.Fprintf(os.Stderr, "benchdiff: pair %q: missing cell (A present=%v, B present=%v)\n", pr, aok, bok)
			regressions++
			continue
		}
		if av > bv*(1+*threshold) {
			fmt.Printf("pair %-60s %10.1f > %10.1f ns/op (+%.0f%% allowed)  REGRESSION\n",
				pr, av, bv, 100**threshold)
			regressions++
		} else {
			fmt.Printf("pair %-60s %10.1f <= %10.1f ns/op  ok\n", pr, av, bv)
		}
	}

	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d cell(s) regressed beyond %.0f%%\n",
			regressions, 100**threshold)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d cells within %.0f%% of baseline\n", len(names), 100**threshold)
}
