package core

import (
	"sync"

	"repro/internal/spec"
)

// This file extends the helper mechanism across monitors: the two-phase
// helped protocol behind a cross-volume rename (DESIGN.md §13). Each
// volume is an independent atomfs instance with its own Monitor, so no
// single abstract state sees the composed rename; instead the source
// volume observes an OpDetach and the destination volume an OpAttach,
// stitched by a shared CrossRecord:
//
//	source:      walk spine, lock victim + subtree, snapshot payload,
//	             CrossPrepare(rec)            [no LP, no concrete effect]
//	destination: walk, victim checks, concrete build + insert,
//	             HelpCommit(rec)              [dst LP; src external LP]
//	source:      concrete removal, unlock, End
//
// HelpCommit is the composed operation's single commit point: it runs the
// destination's own fixed LP and then externally linearizes the source's
// OpDetach under the source monitor — the cross-monitor analogue of
// rename's linothers. Between that external LP and the source's End the
// source descriptor sits in the source Helplist exactly like a
// rename-helped thread: abstractly detached, concretely still present,
// with every fast path (LPValidated, ShortcutEntry) refusing until the
// concrete removal lands.
//
// CrossAbort is the rollback arm: the destination failed (victim type
// conflict, no space), so the source's OpDetach linearizes as a failure
// with the destination's error and zero effects. That is sound because
// the source applied no concrete mutation before the commit point — the
// §4.4 rollback of the prepared half is the trivial one.
//
// The two monitors' locks are never held together: HelpCommit and
// CrossAbort take the record lock, then each monitor's lock in turn.
// Per-volume history recording does not compose with cross records (a
// committed detach/attach pair is two per-volume events of one composed
// client operation, and an aborted detach linearizes as a failure its
// own Aop would not produce); cross-volume histories are checked at the
// namespace level instead (internal/mount with history.WrapFS).

// CrossState is the lifecycle of a CrossRecord.
type CrossState uint8

// Cross record states.
const (
	CrossIdle      CrossState = iota // no prepare yet
	CrossPrepared                    // source intent published
	CrossCommitted                   // destination committed the attach
	CrossAborted                     // destination failed; source rolled back
)

var crossStateNames = [...]string{
	CrossIdle: "idle", CrossPrepared: "prepared",
	CrossCommitted: "committed", CrossAborted: "aborted",
}

func (s CrossState) String() string {
	if int(s) < len(crossStateNames) {
		return crossStateNames[s]
	}
	return "cross-state(?)"
}

// crossHelperBit tags the helper id recorded for a cross-volume external
// linearization. Monitor tids are small counters, so the bit guarantees
// helper != tid (the helped-descriptor condition) and makes the helper's
// origin recognizable in violation messages.
const crossHelperBit = uint64(1) << 63

// CrossRecord is the shared help record of a cross-volume rename: the
// source's prepared detach intent (session + subtree payload) and the
// protocol state the two volumes advance through. The zero value is
// ready to use.
type CrossRecord struct {
	mu    sync.Mutex
	state CrossState
	sub   *spec.SubTree
	src   *Session
}

// State returns the record's current protocol state.
func (r *CrossRecord) State() CrossState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Sub returns the subtree payload published at prepare time.
func (r *CrossRecord) Sub() *spec.SubTree {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sub
}

// CrossPrepare publishes the source half of a cross-volume rename: the
// session's OpDetach becomes the record's prepared intent, with sub as
// the subtree payload the destination will graft. No linearization
// happens here — the detach's LP is external, fired by HelpCommit (or
// resolved as a failure by CrossAbort). The caller must hold its full
// lock spine (root to victim): that is what keeps the prepared
// descriptor out of every rename's help set (no rename can hold a
// prefix of a fully held spine) and makes the two-phase window
// unobservable to slow-path readers. From this point the operation can
// no longer abort unilaterally (TryAbort refuses): the record is
// published and the destination may commit at any moment.
//
// A nil session (unmonitored volume) still advances the record's state
// machine; only the ghost checks are skipped.
func (s *Session) CrossPrepare(rec *CrossRecord, sub *spec.SubTree) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if s == nil {
		if rec.state == CrossIdle {
			rec.state, rec.sub = CrossPrepared, sub
		}
		return
	}
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	d := s.d
	if rec.state != CrossIdle {
		m.violate(ViolCross, d.tid, "%s %s: prepare on a %s cross record", d.op, d.args, rec.state)
		return
	}
	if d.readonly {
		m.violate(ViolCross, d.tid, "%s %s: cross prepare on a read-only session", d.op, d.args)
	}
	if d.state != AopPending {
		m.violate(ViolCross, d.tid, "%s %s: cross prepare after the LP", d.op, d.args)
		return
	}
	if d.aborted {
		m.violate(ViolCross, d.tid, "aborted %s %s prepared a cross record", d.op, d.args)
		return
	}
	if len(d.held) == 0 {
		m.violate(ViolCross, d.tid, "%s %s: cross prepare outside any critical section", d.op, d.args)
	}
	rec.state, rec.sub, rec.src = CrossPrepared, sub, s
	d.crossPending = true
}

// HelpCommit is the commit point of a cross-volume rename, called by the
// destination session inside the critical section of its concrete attach
// (where an ordinary operation would fire LP). It linearizes the
// destination's OpAttach at its own fixed LP — unless a destination-
// volume rename already helped it to an external LP — and then, under
// the source monitor, externally linearizes the prepared OpDetach: the
// cross-monitor analogue of linothers, with the destination as the
// helper. The source descriptor joins the source Helplist until its End,
// so source-volume fast paths refuse throughout the window in which the
// subtree is abstractly gone but concretely still present.
func (s *Session) HelpCommit(rec *CrossRecord) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.state != CrossPrepared {
		if s != nil {
			m := s.m
			m.mu.Lock()
			m.violate(ViolCross, s.d.tid, "%s %s: commit on a %s cross record", s.d.op, s.d.args, rec.state)
			m.mu.Unlock()
		}
		return
	}
	rec.state = CrossCommitted
	helper := crossHelperBit
	if s != nil {
		m := s.m
		m.mu.Lock()
		d := s.d
		helper |= d.tid
		if len(d.held) == 0 {
			m.violate(ViolProtocol, d.tid, "%s %s: cross commit outside any critical section", d.op, d.args)
		}
		if d.state != AopDone {
			m.linearize(d, d.tid)
		}
		m.mu.Unlock()
	}
	if src := rec.src; src != nil {
		m := src.m
		m.mu.Lock()
		d := src.d
		d.crossPending = false
		if d.state != AopDone {
			m.linearize(d, helper)
		} else {
			m.violate(ViolCross, d.tid, "%s %s: source already linearized at commit", d.op, d.args)
		}
		m.stats.CrossCommits++
		m.mu.Unlock()
	}
}

// CrossAbort resolves a prepared record as failed: the destination could
// not attach (cause is its error), so under the source monitor the
// prepared OpDetach linearizes as that same failure with zero effects.
// This is sound because the source's prepare applied no concrete
// mutation — the composed rename really failed with cause and the source
// volume's state is unchanged, so no rollback is needed (the trivial
// case of §4.4). The source then releases its spine and Ends with cause.
// s is the destination session (may be nil); it is used only to report
// protocol misuse.
func (s *Session) CrossAbort(rec *CrossRecord, cause error) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.state != CrossPrepared {
		if s != nil {
			m := s.m
			m.mu.Lock()
			m.violate(ViolCross, s.d.tid, "%s %s: abort on a %s cross record", s.d.op, s.d.args, rec.state)
			m.mu.Unlock()
		}
		return
	}
	rec.state = CrossAborted
	src := rec.src
	if src == nil {
		return
	}
	m := src.m
	m.mu.Lock()
	defer m.mu.Unlock()
	d := src.d
	d.crossPending = false
	m.stats.CrossAborts++
	if d.state != AopPending {
		m.violate(ViolCross, d.tid, "%s %s: cross abort after the source linearized", d.op, d.args)
		return
	}
	// The failure linearization: state AopDone with the destination's
	// error and no effects. Deliberately not m.linearize — the source
	// volume's own Aop would have succeeded, but the composed operation
	// did not, and the abstract state must stay untouched.
	d.state = AopDone
	d.ret = spec.ErrRet(cause)
	d.helper = d.tid
	d.effects = nil
	m.stats.Linearized++
	if o := m.obs; o != nil {
		o.linearized.Inc(d.tid)
	}
	if m.cfg.Recorder != nil {
		m.cfg.Recorder.Lin(d.tid, d.tid, d.op, d.ret)
	}
}
