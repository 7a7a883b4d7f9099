package atomfs

// The lockless read fast path (WithFastPath): an RCU-walk-style traversal
// in the spirit of Linux's rcu-walk + rename_lock, adapted to AtomFS and to
// the CRL-H verification story.
//
// Protocol, for Stat/Read/Readdir:
//
//  1. snapshot the namespace mutation counter (fs.mseq.Read);
//  2. walk the path with no locks at all — every shared load along the way
//     (directory bucket heads, entry next pointers) is atomic, and
//     dir.Table's RCU-hlist discipline guarantees each individual lookup
//     sees either a fully published entry or none;
//  3. on a walk error, attempt to linearize the error result directly: if
//     the counter is unchanged, no namespace mutation's critical section
//     overlapped the walk, so the walk's observations were equivalent to an
//     atomic snapshot and the error is the correct result;
//  4. on reaching the target, lock ONLY the target inode and re-validate
//     the counter before touching any of its content. The validation rules
//     out that the node was unlinked since the snapshot (an unlink would
//     have bumped the counter inside its critical section), so its blocks
//     cannot have been freed or reused; and once validated under the lock,
//     any later unlink must acquire the target's lock first and therefore
//     orders entirely after us;
//  5. read the result (size, data, names) under the target lock, then
//     linearize at a second, final validation — under the monitor this is
//     Session.LPValidated, which evaluates the validation inside the
//     monitor's atomic block so that "counter unchanged" provably means "no
//     mutation's Aop ran since the snapshot";
//  6. any validation failure abandons the attempt and the operation runs
//     the unchanged lock-coupled slow path (a single fallback, no retry
//     loop: under heavy mutation the slow path's progress guarantee is the
//     better one).
//
// The fast path acquires locks in the order [target inode] then [monitor
// internals]; mutators acquire [inode locks] then [seqMu] then [monitor
// internals]. Neither order cycles with the other because the fast path
// holds exactly one inode lock and never seqMu.

import (
	"repro/internal/fserr"
	"repro/internal/obs"
	"repro/internal/spec"
)

// fastSpinBudget bounds the seqlock snapshot's retry loop: after this
// many odd observations (with ilock.ReadBounded's exponential-backoff
// yielding between bursts) the attempt gives up and takes the locked
// slow path. Unbounded spinning was pathological under writer
// contention — the read-mostly 95/5 benchmark showed hundreds of spins
// per hit — and the slow path's progress guarantee is strictly better
// than waiting out a writer convoy.
const fastSpinBudget = 128

// Fast-path fallback reasons (op.fallReason), exported per-reason by the
// obs layer: which validation sent the attempt to the slow path.
const (
	fallNone = iota
	// fallSpinBudget: the mutation counter never stabilized within
	// fastSpinBudget observations (a writer convoy).
	fallSpinBudget
	// fallWalkValidate: the lock-free walk errored and the error result
	// could not be linearized (counter moved during the walk).
	fallWalkValidate
	// fallLockValidate: the counter moved between the snapshot and the
	// target-lock acquisition.
	fallLockValidate
	// fallLPValidate: the final validation LP failed — counter moved
	// while reading the result, or the monitor refused (helplist).
	fallLPValidate

	nFallReasons
)

// fallReasonNames labels the obs per-reason fallback counters.
var fallReasonNames = [nFallReasons]string{
	fallSpinBudget:   "spin-budget",
	fallWalkValidate: "walk-validate",
	fallLockValidate: "lock-validate",
	fallLPValidate:   "lp-validate",
}

// Adaptive fast-path veto (fig10 fix): after fastStreakLimit consecutive
// fallbacks — a write-dominated mix where every attempt is pure entry
// cost — the next fastVetoWindow reads skip the fast path entirely and
// go straight to the coupled walk. Any hit resets the streak; the window
// keeps the probe rate at one attempt per 256 reads while the mix stays
// hostile, so the fast path re-engages within a window of the writes
// letting up.
const (
	fastStreakLimit = 8
	fastVetoWindow  = 256
)

// fastAdmit decides whether this read attempts the fast path or burns a
// veto token. Vetoed reads count in neither hits nor fallbacks (their
// own counter keeps the accounting honest).
func (o *op) fastAdmit() bool {
	fs := o.fs
	for {
		v := fs.fastVeto.Load()
		if v <= 0 {
			return true
		}
		if fs.fastVeto.CompareAndSwap(v, v-1) {
			fs.fastVetoed.Add(1)
			return false
		}
	}
}

// fastWalk resolves parts from the root without taking any locks,
// additionally returning how many lock-free lookups it performed (the
// caller accounts them in one sharded add; dir.Lookup itself is too hot
// to count per component). Error precedence mirrors the slow path's
// stepKeeping: a non-directory on the path reports ErrNotDir before a
// missing entry reports ErrNotExist.
func (o *op) fastWalk(parts []string) (n *node, steps int, err error) {
	cur := o.fs.root
	for _, name := range parts {
		if cur.kind != spec.KindDir {
			return nil, steps, fserr.ErrNotDir
		}
		steps++
		child, ok := cur.dir.Lookup(name)
		if !ok {
			return nil, steps, fserr.ErrNotExist
		}
		cur = child
	}
	return cur, steps, nil
}

// lpValidated attempts to linearize the read-only operation at a validation
// of the sequence snapshot. Unmonitored, the validation itself is the
// linearization point; monitored, the session re-evaluates it inside the
// monitor's atomic block and applies the Aop there.
func (o *op) lpValidated(seq uint64) bool {
	if o.s == nil {
		return o.fs.mseq.Validate(seq)
	}
	fs := o.fs
	return o.s.LPValidated(func() bool { return fs.mseq.Validate(seq) })
}

// fastTry runs one fast-path attempt: lockless walk, then — on success —
// target-locked result extraction via result, then the validation LP.
// result runs with the target locked and the snapshot already validated
// once, so node content (data blocks, directory tables) is stable and
// mutex-synchronized. ok=false means the caller must fall back to the slow
// path; ret is only meaningful when ok.
func (o *op) fastTry(parts []string, result func(n *node) spec.Ret) (ret spec.Ret, ok bool) {
	fs := o.fs
	o.fallReason = fallNone
	o.fire(HookFastSnap, "", 0)
	seq, spins, stable := fs.mseq.ReadBounded(fastSpinBudget)
	if p := fs.obs; p != nil {
		// No attempt counter or event here: an attempt is implied by the
		// hit/fallback it always ends in, and this path is too hot for
		// derivable accounting. Seqlock spins are the exception — rare,
		// and the early signal of a fallback storm.
		o.spins = uint32(spins)
		if spins > 0 {
			p.fastSpins.Add(o.tid, uint64(spins))
			if o.traced {
				p.rec.Emit(o.tid, obs.EvFastAttempt, uint8(o.kind), 0, uint64(spins))
			}
		}
	}
	if !stable {
		o.fallReason = fallSpinBudget
		return spec.Ret{}, false
	}
	o.fire(HookFastWalk, "", 0)
	n, steps, err := o.fastWalk(parts)
	if p := fs.obs; p != nil && o.traced && steps > 0 {
		p.rcuWalkSteps.Add(uint64(steps))
	}
	if err != nil {
		// No lock held: the error linearizes at the validation alone.
		o.fire(HookFastLP, "", 0)
		if o.lpValidated(seq) {
			return spec.ErrRet(err), true
		}
		o.fallReason = fallWalkValidate
		return spec.Ret{}, false
	}
	// Lock only the target; the deliberate asymmetry with the slow path's
	// lock coupling is the whole point. The monitor is NOT told about this
	// acquisition: a read-only session's fast path contributes no LockPath,
	// and its LP obligation is discharged by LPValidated instead.
	o.fire(HookFastLock, "", n.ino)
	n.lk.Lock(o.tid)
	if !fs.mseq.Validate(seq) {
		n.lk.Unlock(o.tid)
		o.fire(HookFastUnlock, "", n.ino)
		o.fallReason = fallLockValidate
		return spec.Ret{}, false
	}
	ret = result(n)
	o.fire(HookFastLP, "", 0)
	ok = o.lpValidated(seq)
	n.lk.Unlock(o.tid)
	o.fire(HookFastUnlock, "", n.ino)
	if !ok {
		o.fallReason = fallLPValidate
		return spec.Ret{}, false
	}
	return ret, true
}

// fastStat is Stat's fast path.
func (o *op) fastStat(parts []string) (spec.Ret, bool) {
	return o.fastTry(parts, func(n *node) spec.Ret {
		ret := spec.Ret{Kind: n.kind}
		if n.kind == spec.KindFile {
			ret.Size = n.data.Size()
		} else {
			ret.Size = int64(n.dir.Len())
		}
		return ret
	})
}

// fastRead is Read's fast path. It fills the caller's dst buffer — the
// zero-allocation property of the hot read path depends on this: the
// validated seqlock protocol makes it safe to copy file bytes straight
// into caller memory, because a failed validation discards the result
// before it is returned.
func (o *op) fastRead(parts []string, off int64, dst []byte) (spec.Ret, bool) {
	return o.fastTry(parts, func(n *node) spec.Ret {
		if n.kind == spec.KindDir {
			return spec.ErrRet(fserr.ErrIsDir)
		}
		rn, _ := n.data.ReadAt(dst, off)
		return spec.Ret{Data: dst[:rn:rn], N: rn}
	})
}

// fastReaddir is Readdir's fast path.
func (o *op) fastReaddir(parts []string) (spec.Ret, bool) {
	return o.fastTry(parts, func(n *node) spec.Ret {
		if n.kind != spec.KindDir {
			return spec.ErrRet(fserr.ErrNotDir)
		}
		return spec.Ret{Names: n.dir.Names()}
	})
}
