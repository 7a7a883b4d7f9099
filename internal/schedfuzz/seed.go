package schedfuzz

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/explore"
	"repro/internal/fstest"
	"repro/internal/trace"
)

// FaultKind selects what the injected fault does to the op's context.
type FaultKind uint8

const (
	// FaultCancel marks the context cancelled at the fault's yield point.
	FaultCancel FaultKind = iota + 1
	// FaultDeadline is the same but reports DeadlineExceeded.
	FaultDeadline
	// FaultTransient cancels like FaultCancel, but if the op actually
	// aborts, the worker retries it once on a fresh context — the
	// retryfs discipline for transient errors.
	FaultTransient
)

var faultKindNames = map[FaultKind]string{
	FaultCancel:    "cancel",
	FaultDeadline:  "deadline",
	FaultTransient: "transient",
}

func (k FaultKind) String() string {
	if n, ok := faultKindNames[k]; ok {
		return n
	}
	return "unknown"
}

// ParseFaultKind is the inverse of FaultKind.String, for repro files.
func ParseFaultKind(name string) (FaultKind, bool) {
	for k, n := range faultKindNames {
		if n == name {
			return k, true
		}
	}
	return 0, false
}

// Fault is one injected context failure: thread Thread's op number OpIdx
// has its context expire when the op reaches its Yield'th yield point
// (0 = already expired when the op starts).
type Fault struct {
	Thread int
	OpIdx  int
	Yield  int
	Kind   FaultKind
}

// Seed is the fuzzer's unit of state: per-thread op programs, injected
// faults, the scripted schedule prefix, and whether the lockless read
// fast path and the write-path prefix cache are enabled. Mode and the
// extension RNG live in Options — they are campaign configuration, not
// mutation targets.
type Seed struct {
	Threads  [][]trace.Entry
	Faults   []Fault
	Sched    []byte
	FastPath bool
	Prefix   bool
}

// Clone deep-copies the seed so mutation and shrinking never alias.
func (s Seed) Clone() Seed {
	c := Seed{FastPath: s.FastPath, Prefix: s.Prefix}
	c.Threads = make([][]trace.Entry, len(s.Threads))
	for i, t := range s.Threads {
		c.Threads[i] = append([]trace.Entry(nil), t...)
	}
	c.Faults = append([]Fault(nil), s.Faults...)
	c.Sched = append([]byte(nil), s.Sched...)
	return c
}

// Ops counts the seed's total programmed operations.
func (s Seed) Ops() int {
	n := 0
	for _, t := range s.Threads {
		n += len(t)
	}
	return n
}

// faultCtx is a context.Context whose expiry is driven by the scheduler
// (via maybeFire) rather than the clock, so cancellation arrives at an
// exact yield point and the run stays deterministic.
type faultCtx struct {
	kind FaultKind
	mu   sync.Mutex
	done chan struct{}
	err  error
}

func newFaultCtx(kind FaultKind) *faultCtx {
	return &faultCtx{kind: kind, done: make(chan struct{})}
}

func (c *faultCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *faultCtx) Done() <-chan struct{}       { return c.done }
func (c *faultCtx) Value(any) any               { return nil }

func (c *faultCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *faultCtx) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	if c.kind == FaultDeadline {
		c.err = context.DeadlineExceeded
	} else {
		c.err = context.Canceled
	}
	close(c.done)
}

var _ context.Context = (*faultCtx)(nil)

// maxFaultYield bounds how deep into an op a generated fault can land;
// a depth-3 walk yields well under this many times.
const maxFaultYield = 12

// RandomSeed generates a fresh seed: threads×opsPer ops drawn mostly
// from the rename-heavy adversarial mix (the distribution the explorer
// uses), occasionally from the uniform fstest stream, plus faults with
// probability faultProb per thread.
func RandomSeed(r *rand.Rand, threads, opsPer int, fastPath, prefix bool, faultProb float64) Seed {
	s := Seed{FastPath: fastPath, Prefix: prefix}
	for t := 0; t < threads; t++ {
		var prog []trace.Entry
		if r.Intn(4) == 0 {
			stream := fstest.NewOpStream(r.Int63())
			for i := 0; i < opsPer; i++ {
				op, args := stream.Next()
				prog = append(prog, trace.Entry{Op: op, Args: args})
			}
		} else {
			for i := 0; i < opsPer; i++ {
				op, args := explore.RenameHeavy(r)
				prog = append(prog, trace.Entry{Op: op, Args: args})
			}
		}
		s.Threads = append(s.Threads, prog)
		if r.Float64() < faultProb {
			s.Faults = append(s.Faults, Fault{
				Thread: t,
				OpIdx:  r.Intn(opsPer),
				Yield:  r.Intn(maxFaultYield),
				Kind:   FaultKind(1 + r.Intn(3)),
			})
		}
	}
	return s
}

// Mutate applies 1–2 random structural or schedule mutations to a
// (cloned) seed. flipFast / flipPrefix permit toggling the fast path and
// the prefix cache (off when the campaign pins them).
func Mutate(s Seed, r *rand.Rand, flipFast, flipPrefix bool) Seed {
	for n := 1 + r.Intn(2); n > 0; n-- {
		switch r.Intn(9) {
		case 0: // truncate the schedule: keep a prefix, re-explore the suffix
			if len(s.Sched) > 0 {
				s.Sched = s.Sched[:r.Intn(len(s.Sched))]
			}
		case 1: // perturb one schedule byte
			if len(s.Sched) > 0 {
				s.Sched[r.Intn(len(s.Sched))] = byte(r.Intn(256))
			}
		case 2: // replace an op
			if t, i, ok := pickOp(s, r); ok {
				op, args := explore.RenameHeavy(r)
				s.Threads[t][i] = trace.Entry{Op: op, Args: args}
			}
		case 3: // insert an op
			if len(s.Threads) > 0 {
				t := r.Intn(len(s.Threads))
				op, args := explore.RenameHeavy(r)
				i := 0
				if len(s.Threads[t]) > 0 {
					i = r.Intn(len(s.Threads[t]) + 1)
				}
				prog := s.Threads[t]
				prog = append(prog[:i], append([]trace.Entry{{Op: op, Args: args}}, prog[i:]...)...)
				s.Threads[t] = prog
				s.Faults = shiftFaultsInsert(s.Faults, t, i)
			}
		case 4: // delete an op
			if t, i, ok := pickOp(s, r); ok {
				s.Threads[t] = append(s.Threads[t][:i], s.Threads[t][i+1:]...)
				s.Faults = shiftFaultsDelete(s.Faults, t, i)
			}
		case 5: // add a fault
			if t, i, ok := pickOp(s, r); ok {
				s.Faults = append(s.Faults, Fault{
					Thread: t, OpIdx: i,
					Yield: r.Intn(maxFaultYield),
					Kind:  FaultKind(1 + r.Intn(3)),
				})
			}
		case 6: // remove a fault
			if len(s.Faults) > 0 {
				i := r.Intn(len(s.Faults))
				s.Faults = append(s.Faults[:i], s.Faults[i+1:]...)
			}
		case 7: // flip the fast path
			if flipFast {
				s.FastPath = !s.FastPath
			}
		case 8: // flip the prefix cache
			if flipPrefix {
				s.Prefix = !s.Prefix
			}
		}
	}
	return s
}

// pickOp selects a random (thread, opIdx) among non-empty threads.
func pickOp(s Seed, r *rand.Rand) (int, int, bool) {
	var ts []int
	for t := range s.Threads {
		if len(s.Threads[t]) > 0 {
			ts = append(ts, t)
		}
	}
	if len(ts) == 0 {
		return 0, 0, false
	}
	t := ts[r.Intn(len(ts))]
	return t, r.Intn(len(s.Threads[t])), true
}

// shiftFaultsDelete repairs fault op indices after deleting op i of
// thread t: faults on the deleted op vanish, later ones shift down.
func shiftFaultsDelete(fs []Fault, t, i int) []Fault {
	out := fs[:0]
	for _, f := range fs {
		if f.Thread == t {
			if f.OpIdx == i {
				continue
			}
			if f.OpIdx > i {
				f.OpIdx--
			}
		}
		out = append(out, f)
	}
	return out
}

// shiftFaultsInsert repairs fault op indices after inserting at op i of
// thread t.
func shiftFaultsInsert(fs []Fault, t, i int) []Fault {
	for j := range fs {
		if fs[j].Thread == t && fs[j].OpIdx >= i {
			fs[j].OpIdx++
		}
	}
	return fs
}

// dropFaultsForThread removes every fault targeting thread t (used when
// the shrinker empties a thread).
func dropFaultsForThread(fs []Fault, t int) []Fault {
	out := fs[:0]
	for _, f := range fs {
		if f.Thread != t {
			out = append(out, f)
		}
	}
	return out
}
