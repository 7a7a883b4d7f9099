package atomfs

// Observability wiring for AtomFS (WithObs): per-op-type latency
// histograms and counters, fast-path attempt/hit/fallback/seqlock-spin
// counters, per-inode lock wait & hold histograms, and flight-recorder
// events for op begin/end, lock coupling steps and fast-path outcomes.
//
// Cost discipline: the registry counters are always-on (a few sharded
// atomic adds per operation), but clock reads and ring events are
// *sampled* — 1 in sampleEvery ops carries full begin/end tracing —
// because two time.Now calls plus two ring events would alone exceed
// the fast path's ≤5% overhead budget, and a traced mutator's lock
// coupling times and records every acquisition down a depth-N path.
// The one always-on trace source is the fast-path fallback: fallbacks
// are exactly the anomaly the flight recorder exists for, so every one
// is recorded and promotes its operation to traced. Debugging setups
// that want a complete log (the interleaving explorer, monitored
// daemons under investigation) pass WithObsSampleEvery(1). make
// obs-overhead enforces the budget against the no-op-registry baseline.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dir"
	"repro/internal/obs"
	"repro/internal/spec"
)

// DefaultObsSampleEvery is the default trace sampling period: 1 in this
// many operations carries flight-recorder events and clock reads. At 64
// the amortized trace cost sits well under a nanosecond per op while a
// busy daemon still records hundreds of full op traces per second.
const DefaultObsSampleEvery = 64

const nOps = int(spec.OpAttach) + 1

// obsPack caches instrument handles so the hot path never touches the
// registry's lock.
type obsPack struct {
	reg        *obs.Registry
	rec        *obs.FlightRecorder
	sampleMask uint64

	opCount [nOps]*obs.Counter
	opLat   [nOps]*obs.Histogram

	// Cancellation outcomes, per op type: aborts whose context was merely
	// cancelled vs. aborts whose deadline had passed. Ops cancelled after
	// their LP committed are not counted here — they complete normally
	// and land in abortRefusedCnt instead.
	cancelledCnt    [nOps]*obs.Counter
	deadlineCnt     [nOps]*obs.Counter
	abortRefusedCnt [nOps]*obs.Counter

	lockWait *obs.Histogram
	lockHold *obs.Histogram

	fastSpins *obs.Counter

	// fastFallReason splits atomfs_fastpath_fallbacks_total by which
	// validation sent the attempt to the slow path (indexed by the
	// fallReason constants); the undifferentiated total stays on the
	// FastPathStats atomic.
	fastFallReason [nFallReasons]*obs.Counter

	// rcuWalkSteps counts lock-free lookups on TRACED fast walks only;
	// the exported dir_rcu_lockfree_lookups_total gauge scales it by the
	// sampling period. Exact under WithObsSampleEvery(1), a statistical
	// estimate otherwise — the walk is too hot for an always-on atomic.
	rcuWalkSteps atomic.Uint64
	samplePeriod uint64
}

func newObsPack(fs *FS, reg *obs.Registry, sampleEvery uint64) *obsPack {
	if sampleEvery == 0 {
		sampleEvery = DefaultObsSampleEvery
	}
	// Round to a power of two so sampling is a mask test.
	mask := uint64(1)
	for mask < sampleEvery {
		mask <<= 1
	}
	p := &obsPack{reg: reg, rec: reg.FlightRecorder(), sampleMask: mask - 1, samplePeriod: mask}
	for op := spec.OpMknod; op <= spec.OpAttach; op++ {
		lbl := fmt.Sprintf("{op=%q}", op.String())
		p.opCount[op] = reg.Counter("atomfs_ops_total" + lbl)
		p.opLat[op] = reg.Histogram("atomfs_op_latency_ns" + lbl)
		p.cancelledCnt[op] = reg.Counter("atomfs_cancelled_total" + lbl)
		p.deadlineCnt[op] = reg.Counter("atomfs_deadline_exceeded_total" + lbl)
		p.abortRefusedCnt[op] = reg.Counter("atomfs_abort_refused_total" + lbl)
	}
	p.lockWait = reg.Histogram("atomfs_lock_wait_ns")
	p.lockHold = reg.Histogram("atomfs_lock_hold_ns")
	// Hit and fallback totals piggyback on the FastPathStats atomics the
	// fast path maintains whether or not observability is on, so turning
	// the registry on adds nothing to this accounting; attempts are the
	// sum of the two. Exposed as render-time funcs (read with FuncValue).
	p.fastSpins = reg.Counter("atomfs_fastpath_seq_spins_total")
	reg.GaugeFunc("atomfs_fastpath_hits_total", func() int64 {
		return int64(fs.fastHits.Load())
	})
	reg.GaugeFunc("atomfs_fastpath_fallbacks_total", func() int64 {
		return int64(fs.fastFalls.Load())
	})
	for r := fallSpinBudget; r < nFallReasons; r++ {
		p.fastFallReason[r] = reg.Counter(fmt.Sprintf(
			"atomfs_fastpath_fallback_total{reason=%q}", fallReasonNames[r]))
	}
	reg.GaugeFunc("atomfs_fastpath_vetoed_total", func() int64 {
		return int64(fs.fastVetoed.Load())
	})
	if fs.prefix {
		// Prefix-cache totals piggyback on the FS atomics the cache
		// maintains unconditionally, like the fast-path pair above.
		reg.GaugeFunc("atomfs_prefix_hits_total", func() int64 {
			return int64(fs.prefixHits.Load())
		})
		reg.GaugeFunc("atomfs_prefix_misses_total", func() int64 {
			return int64(fs.prefixMisses.Load())
		})
		reg.GaugeFunc("atomfs_prefix_invalidations_total", func() int64 {
			return int64(fs.prefixInvals.Load())
		})
	}
	// Lock-free lookups are estimated from sampled fast walks rather than
	// counted inside dir.Lookup: the table's reader is too hot for even a
	// gated global atomic per path component.
	reg.GaugeFunc("dir_rcu_lockfree_lookups_total", func() int64 {
		return int64(p.rcuWalkSteps.Load() * p.samplePeriod)
	})
	// The dir package's publish/unpublish statistics are package-global
	// (they count across every Table) and mutation-side only; exposed
	// here because atomfs is the layer that owns the tables. Register
	// them only once per registry: GaugeFunc sums repeated registrations,
	// which is right for per-FS sources but would double-count a global.
	dir.EnableStats(true)
	if _, ok := reg.FuncValue("dir_rcu_publish_total"); !ok {
		reg.GaugeFunc("dir_rcu_publish_total", func() int64 {
			pub, _ := dir.RCUStats()
			return int64(pub)
		})
		reg.GaugeFunc("dir_rcu_unpublish_total", func() int64 {
			_, unpub := dir.RCUStats()
			return int64(unpub)
		})
	}
	return p
}

func nowNano() int64 { return time.Now().UnixNano() }

// cancel accounts a pre-LP abort under the op's type, split by whether
// the context was cancelled or timed out.
func (p *obsPack) cancel(tid uint64, kind spec.Op, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		p.deadlineCnt[kind].Inc(tid)
	} else {
		p.cancelledCnt[kind].Inc(tid)
	}
}

// abortRefused accounts a cancellation that lost the race with the LP:
// the context was done but the Aop had already committed (possibly
// helped), so the op runs to its linearized result. Always recorded in
// the flight ring — helped-then-cancelled is the rarest and most
// informative cancellation outcome, and the schedule fuzzer feeds on it
// as a coverage signal.
func (p *obsPack) abortRefused(tid uint64, kind spec.Op) {
	p.abortRefusedCnt[kind].Inc(tid)
	p.rec.Emit(tid, obs.EvAbortRefused, uint8(kind), 0, 0)
}

// obsBegin stamps the operation's observability state: count it, decide
// whether this op carries full tracing, and emit op-begin when it does.
// The sampling tick is the op counter's post-increment shard value, so
// the one atomic the hot path already pays doubles as the sample clock
// (every 1-in-sampleEvery ops per op-type shard traces).
func (o *op) obsBegin(p *obsPack, kind spec.Op) {
	tick := p.opCount[kind].IncVal(o.tid)
	o.traced = tick&p.sampleMask == 0
	o.startNs = 0
	if o.traced {
		o.startNs = nowNano()
		p.rec.EmitAt(o.startNs, o.tid, obs.EvOpBegin, uint8(kind), 0, 0)
	}
}

// obsEnd closes the bracket: latency histogram plus op-end event.
func (o *op) obsEnd(p *obsPack) {
	if !o.traced {
		return
	}
	now := nowNano()
	lat := now - o.startNs
	if o.startNs == 0 {
		lat = 0 // begin was untraced and no fallback stamped a start
	}
	p.opLat[o.kind].Observe(o.tid, lat)
	p.rec.EmitAt(now, o.tid, obs.EvOpEnd, uint8(o.kind), 0, uint64(lat))
}

// fastHit accounts a fast-path completion. The count lives in the
// FastPathStats atomic (shared with the uninstrumented build); only the
// sampled trace event is obs-specific.
func (o *op) fastHit() {
	o.fs.fastHits.Add(1)
	o.fs.fastStreak.Store(0)
	if p := o.fs.obs; p != nil && o.traced {
		p.rec.Emit(o.tid, obs.EvFastHit, uint8(o.kind), 0, uint64(o.spins))
	}
}

// fastFall accounts a fast-path fallback. Fallbacks are always recorded
// — they are exactly the anomaly the flight recorder exists for — and
// the operation is promoted to traced so its slow-path lock coupling
// and op-end land in the ring too.
func (o *op) fastFall() {
	o.fs.fastFalls.Add(1)
	if s := o.fs.fastStreak.Add(1); s >= fastStreakLimit {
		// Write-dominated: stop probing for a window (fastAdmit).
		o.fs.fastStreak.Store(0)
		o.fs.fastVeto.Store(fastVetoWindow)
	}
	if p := o.fs.obs; p != nil {
		if r := o.fallReason; r > fallNone && int(r) < nFallReasons {
			p.fastFallReason[r].Inc(o.tid)
		}
		now := nowNano()
		if o.startNs == 0 {
			o.startNs = now // latency from here covers the slow-path retry
		}
		p.rec.EmitAt(now, o.tid, obs.EvFastFallback, uint8(o.kind), 0, uint64(o.spins))
		o.traced = true
	}
}

// prefixHit traces a write-path walk admitted at a prefix-cache entry;
// skipped is the coupling depth the shortcut saved. Hits are the common
// case once the cache is warm, so they trace only on sampled ops.
func (p *obsPack) prefixHit(o *op, ino spec.Inum, skipped int) {
	if o.traced {
		p.rec.Emit(o.tid, obs.EvPrefixHit, uint8(o.kind), uint64(ino), uint64(skipped))
	}
}

// prefixFall traces a prefix-cache fallback to the root walk. A refused
// entry (stale stamps under the lock, or the monitor declined the
// shortcut) is the anomaly the recorder exists for: always recorded, and
// the op is promoted to traced like a fast-path fallback. A plain cold
// miss traces only on sampled ops.
func (p *obsPack) prefixFall(o *op, ino spec.Inum, refused bool) {
	aux := uint64(0)
	if refused {
		aux = 1
		o.traced = true
		if o.startNs == 0 {
			o.startNs = nowNano()
		}
	}
	if o.traced {
		p.rec.Emit(o.tid, obs.EvPrefixFallback, uint8(o.kind), uint64(ino), aux)
	}
}
