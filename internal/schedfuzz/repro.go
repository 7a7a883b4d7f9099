package schedfuzz

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/trace"
)

// Repro is a self-contained, replayable counterexample: the seed, the
// execution options that matter for determinism, and the expected
// failure signature. The text form is line-oriented and diff-friendly
// so minimal repros can be checked in as golden files:
//
//	# schedfuzz repro v1
//	mode fixedlp
//	fastpath off
//	unsafe off
//	rng 42
//	expect refinement
//	thread 0 stat /a/f0
//	thread 1 rename /a /d
//	fault 0 0 cancel 3
//	sched 1 0 2
//
// Op lines reuse the trace package's format verbatim (after the
// "thread N " prefix), so cmd/fsreplay's parser vocabulary carries over.
type Repro struct {
	Seed   Seed
	Mode   core.Mode
	Unsafe bool
	// Cross replays the seed against the two-volume namespace
	// (ExecuteCross) instead of a single FS.
	Cross bool
	// Journal replays the seed as a crash schedule (ExecuteCrash):
	// thread 0 is the sequential program, CkptEvery the checkpoint
	// cadence, Crash the journal byte offset at which the device dies.
	Journal   bool
	CkptEvery int
	Crash     int64
	RNG       int64
	// Expect is the failure signature the replay must reproduce
	// (RunResult.Signature); empty means "expect a clean run".
	Expect string
	// Notes are free-text comment lines written after the header (the
	// rendered counterexample, fuzzer provenance, ...).
	Notes []string
}

// Options returns the Execute options pinned by the repro.
func (r *Repro) Options() Options {
	return Options{Mode: r.Mode, Unsafe: r.Unsafe, RNG: r.RNG}
}

// Replay executes the repro and checks the outcome against Expect.
// The RunResult is returned in both cases; err is non-nil exactly when
// the signature diverges. Journal repros run through ExecuteCrash and
// return a nil RunResult — use ReplayCrash for the crash-run detail.
func (r *Repro) Replay() (*RunResult, error) {
	if r.Journal {
		_, err := r.ReplayCrash()
		return nil, err
	}
	exec := Execute
	if r.Cross {
		exec = ExecuteCross
	}
	res := exec(r.Seed, r.Options())
	if got := res.Signature(); got != r.Expect {
		return res, fmt.Errorf("schedfuzz: replay signature %q, repro expects %q", got, r.Expect)
	}
	return res, nil
}

// ReplayCrash executes a journal repro as a crash schedule and checks
// the verdict against Expect.
func (r *Repro) ReplayCrash() (*CrashResult, error) {
	if !r.Journal {
		return nil, fmt.Errorf("schedfuzz: not a journal repro")
	}
	var prog []trace.Entry
	if len(r.Seed.Threads) > 0 {
		prog = r.Seed.Threads[0]
	}
	res := ExecuteCrash(CrashSeed{Prog: prog, CkptEvery: r.CkptEvery, Crash: r.Crash})
	if got := res.Signature(); got != r.Expect {
		return res, fmt.Errorf("schedfuzz: crash replay signature %q, repro expects %q: %s",
			got, r.Expect, res.Detail)
	}
	return res, nil
}

func modeName(m core.Mode) string {
	if m == core.ModeFixedLP {
		return "fixedlp"
	}
	return "helpers"
}

func onoff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// WriteRepro serializes the repro in its text form.
func WriteRepro(w io.Writer, r *Repro) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# schedfuzz repro v1")
	for _, n := range r.Notes {
		for _, line := range strings.Split(strings.TrimRight(n, "\n"), "\n") {
			fmt.Fprintf(bw, "# %s\n", line)
		}
	}
	fmt.Fprintf(bw, "mode %s\n", modeName(r.Mode))
	fmt.Fprintf(bw, "fastpath %s\n", onoff(r.Seed.FastPath))
	fmt.Fprintf(bw, "prefix %s\n", onoff(r.Seed.Prefix))
	fmt.Fprintf(bw, "unsafe %s\n", onoff(r.Unsafe))
	if r.Cross {
		fmt.Fprintf(bw, "cross on\n")
	}
	if r.Journal {
		fmt.Fprintf(bw, "journal on\n")
		fmt.Fprintf(bw, "ckpt %d\n", r.CkptEvery)
		fmt.Fprintf(bw, "crash %d\n", r.Crash)
	}
	fmt.Fprintf(bw, "rng %d\n", r.RNG)
	if r.Expect != "" {
		fmt.Fprintf(bw, "expect %s\n", r.Expect)
	}
	for t, prog := range r.Seed.Threads {
		for _, e := range prog {
			fmt.Fprintf(bw, "thread %d %s\n", t, e.Format())
		}
	}
	for _, f := range r.Seed.Faults {
		fmt.Fprintf(bw, "fault %d %d %s %d\n", f.Thread, f.OpIdx, f.Kind, f.Yield)
	}
	if len(r.Seed.Sched) > 0 {
		const perLine = 32
		for i := 0; i < len(r.Seed.Sched); i += perLine {
			end := i + perLine
			if end > len(r.Seed.Sched) {
				end = len(r.Seed.Sched)
			}
			parts := make([]string, 0, end-i)
			for _, b := range r.Seed.Sched[i:end] {
				parts = append(parts, strconv.Itoa(int(b)))
			}
			fmt.Fprintf(bw, "sched %s\n", strings.Join(parts, " "))
		}
	}
	return bw.Flush()
}

// ParseRepro reads the text form back. Unknown directives are errors —
// a repro that silently drops a line is a repro that silently replays
// something else.
func ParseRepro(rd io.Reader) (*Repro, error) {
	r := &Repro{}
	sc := bufio.NewScanner(rd)
	lineno := 0
	fail := func(format string, a ...any) error {
		return fmt.Errorf("repro line %d: %s", lineno, fmt.Sprintf(format, a...))
	}
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		dir, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch dir {
		case "mode":
			switch rest {
			case "helpers":
				r.Mode = core.ModeHelpers
			case "fixedlp":
				r.Mode = core.ModeFixedLP
			default:
				return nil, fail("unknown mode %q", rest)
			}
		case "epoch":
			// Epoch-based reclamation was removed: "epoch off" lines in
			// older repros are harmless, "epoch on" would replay a mode
			// that no longer exists.
			if rest != "off" {
				return nil, fail("epoch %s: epoch-based reclamation was removed; only \"epoch off\" is accepted", rest)
			}
		case "fastpath", "prefix", "unsafe", "cross", "journal":
			// Older repros predate the prefix, cross and journal
			// directives; absence means off.
			on := rest == "on"
			if !on && rest != "off" {
				return nil, fail("%s wants on|off, got %q", dir, rest)
			}
			switch dir {
			case "fastpath":
				r.Seed.FastPath = on
			case "prefix":
				r.Seed.Prefix = on
			case "cross":
				r.Cross = on
			case "journal":
				r.Journal = on
			default:
				r.Unsafe = on
			}
		case "ckpt":
			v, err := strconv.Atoi(rest)
			if err != nil || v < 0 {
				return nil, fail("bad ckpt %q", rest)
			}
			r.CkptEvery = v
		case "crash":
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fail("bad crash offset %q", rest)
			}
			r.Crash = v
		case "rng":
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fail("bad rng: %v", err)
			}
			r.RNG = v
		case "expect":
			r.Expect = rest
		case "thread":
			idStr, opLine, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fail("thread wants: thread <id> <op line>")
			}
			id, err := strconv.Atoi(idStr)
			if err != nil || id < 0 || id > 64 {
				return nil, fail("bad thread id %q", idStr)
			}
			e, ok, err := trace.ParseLine(opLine)
			if err != nil {
				return nil, fail("bad op: %v", err)
			}
			if !ok {
				return nil, fail("empty op line")
			}
			for len(r.Seed.Threads) <= id {
				r.Seed.Threads = append(r.Seed.Threads, nil)
			}
			r.Seed.Threads[id] = append(r.Seed.Threads[id], e)
		case "fault":
			f := strings.Fields(rest)
			if len(f) != 4 {
				return nil, fail("fault wants: fault <thread> <opidx> <kind> <yield>")
			}
			th, err1 := strconv.Atoi(f[0])
			op, err2 := strconv.Atoi(f[1])
			yd, err3 := strconv.Atoi(f[3])
			kind, ok := ParseFaultKind(f[2])
			if err1 != nil || err2 != nil || err3 != nil || !ok {
				return nil, fail("bad fault %q", rest)
			}
			r.Seed.Faults = append(r.Seed.Faults, Fault{Thread: th, OpIdx: op, Yield: yd, Kind: kind})
		case "sched":
			for _, tok := range strings.Fields(rest) {
				v, err := strconv.Atoi(tok)
				if err != nil || v < 0 || v > 255 {
					return nil, fail("bad sched byte %q", tok)
				}
				r.Seed.Sched = append(r.Seed.Sched, byte(v))
			}
		default:
			return nil, fail("unknown directive %q", dir)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return r, nil
}
