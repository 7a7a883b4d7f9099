package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// latLog holds one client's op latencies for the measured window, by
// slice of the window. An op belongs to the slice it completed in; ops
// that complete outside the window are not recorded.
type latLog struct {
	from, to int64
	sliceNs  int64
	slices   [][]int64
}

func newLatLog(from, to int64, slices int) *latLog {
	return &latLog{from: from, to: to, sliceNs: (to - from + int64(slices) - 1) / int64(slices), slices: make([][]int64, slices)}
}

func (l *latLog) add(start, end int64) {
	if end < l.from || end >= l.to {
		return
	}
	i := (end - l.from) / l.sliceNs
	l.slices[i] = append(l.slices[i], end-start)
}

// params are the lengths of one run. They are fixed per mode so that
// every commit is measured the same way.
type params struct {
	seed    int64
	clients int
	warmup  time.Duration
	window  time.Duration
	setups  int // set-ups per run; setup_s is their median
	tree    treeSize

	traceWindow time.Duration // the traced run's two windows
	ladderDiv   int           // the ladder replays ladderOps/ladderDiv ops
}

// slices cuts the window into pieces of about a second.
func (p params) slices() int {
	if n := int(p.window / time.Second); n > 1 {
		return n
	}
	return 1
}

// setup builds the stack for w at rung r, with wire clients on a fuse
// server (none: the caller enters the namespace in process), populates
// it and runs w's priming iterations.
func setup(ctx context.Context, w *workload, p params, r rung, tr *tracer, wire int) (*stack, *tree, error) {
	st, err := buildStack(r, tr, wire)
	if err != nil {
		return nil, nil, err
	}
	var t *tree
	if w.populate {
		t = newTree(p.tree)
		if err := populate(ctx, st.ns, t, p.seed); err != nil {
			st.close()
			return nil, nil, fmt.Errorf("populate: %w", err)
		}
	}
	if w.prime > 0 {
		c := newClient(0, st.ns, nil, nil, t, p.seed)
		for i := 0; i < w.prime; i++ {
			w.iterate(c, ctx)
		}
		if c.failed > 0 {
			st.close()
			return nil, nil, fmt.Errorf("priming: %s", c.firstFail)
		}
	}
	return st, t, nil
}

// drive runs w's clients closed-loop against st: a warm-up, then the
// window. atFrom and atTo run on the calling goroutine as the window
// opens and closes. It returns once every client has finished the
// iteration it was in, so the tree is back to its population.
func drive(ctx context.Context, w *workload, st *stack, t *tree, tr *tracer, p params, atFrom, atTo func()) []*client {
	n := 1
	if len(st.clients) > 0 {
		n = len(st.clients)
	}
	from := now() + int64(p.warmup)
	to := from + int64(p.window)
	if tr != nil {
		tr.window(from, to)
	}
	clients := make([]*client, n)
	var wg sync.WaitGroup
	for i := range clients {
		entry := st.top
		if len(st.clients) > 0 {
			entry = st.clients[i]
		}
		c := newClient(i, entry, tr, newLatLog(from, to, p.slices()), t, p.seed)
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now() < to {
				w.iterate(c, ctx)
			}
		}()
	}
	time.Sleep(time.Duration(from - now()))
	if atFrom != nil {
		atFrom()
	}
	time.Sleep(time.Duration(to - now()))
	if atTo != nil {
		atTo()
	}
	wg.Wait()
	return clients
}

// endToEnd is what one timed run reports: every end-to-end metric by
// name, and the gate's verdict.
type endToEnd struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int64              `json:"attempted"` // ops completed in the window: the latency sample count
	Failed    int64              `json:"failed"`
	Fails     []string           `json:"fails,omitempty"`
}

func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// reduce turns the clients' latency logs into the three timing metrics.
// Each is computed per slice of the window and the median over slices is
// reported: one slice disturbed by the host then moves nothing. It
// releases the logs.
func reduce(clients []*client, p params) (opsPerS, p50, p999 float64, samples int64) {
	var rate, mid, tail []float64
	sliceS := float64(clients[0].fs.lat.sliceNs) / 1e9
	for i := 0; i < p.slices(); i++ {
		var all []int64
		for _, c := range clients {
			all = append(all, c.fs.lat.slices[i]...)
		}
		slices.Sort(all)
		samples += int64(len(all))
		rate = append(rate, float64(len(all))/sliceS)
		mid = append(mid, quantile(all, 0.5)/1e3)
		tail = append(tail, quantile(all, 0.999)/1e3)
	}
	for _, c := range clients {
		c.fs.lat = nil
	}
	return median(rate), median(mid), median(tail), samples
}

// timedRun is the end-to-end measurement of one workload, tracing off.
func timedRun(ctx context.Context, w *workload, p params) (*endToEnd, error) {
	var st *stack
	var t *tree
	var setups []float64
	for i := 0; i < p.setups; i++ {
		if st != nil {
			st.close()
		}
		st, t = nil, nil
		runtime.GC() // every set-up starts from the same heap: the last one's stack is gone
		t0 := time.Now()
		var err error
		if st, t, err = setup(ctx, w, p, rungJournaled, nil, w.wireClients(p)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()
	clients := drive(ctx, w, st, t, nil, p, nil, nil)

	e := &endToEnd{Metrics: map[string]float64{"setup_s": median(setups)}}
	m := e.Metrics
	m["ops_per_s"], m["p50_us"], m["p999_us"], e.Attempted = reduce(clients, p)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	e.Fails, e.Failed, _ = finish(ctx, st, t, p.seed, clients)
	m["error_rate"] = ratio(float64(e.Failed), float64(e.Attempted))
	return e, nil
}

// finish is the correctness gate at the end of every window: the clients
// saw no error and no wrong byte, the tree is the seeded population
// again, and every volume passes the shutdown check. It returns every
// failure, the clients' failed ops and the time recovery took.
func finish(ctx context.Context, st *stack, t *tree, seed int64, clients []*client) (fails []string, failed int64, recoverTime time.Duration) {
	for _, c := range clients {
		failed += c.failed
		if c.failed > 0 {
			fails = append(fails, fmt.Sprintf("client %d: %d failed ops, first: %s", c.id, c.failed, c.firstFail))
		}
	}
	fails = append(fails, verifyTree(ctx, st.ns, t, seed)...)
	gateFails, recoverTime := st.gate()
	return append(fails, gateFails...), failed, recoverTime
}
