// Package core is the CRL-H framework of the AtomFS paper, recast as a
// runtime verification monitor (the executable analogue of the Coq proofs;
// see DESIGN.md for the substitution argument).
//
// A Monitor attaches to an instrumented concurrent file system and
// maintains, under a single internal lock (the "atomic block" in which
// ghost updates are grouped with program steps, §3.4):
//
//   - the abstract file system state (internal/spec, Figure 6);
//   - the helper metadata ghost state: a ThreadPool of Descriptors and the
//     Helplist (§4.3);
//   - the linearize-before relations derived from LockPaths (§5.2), the
//     help-set computation with recursive search, and the linothers
//     primitive (Figure 5) that executes helped Aops at rename's external
//     linearization point;
//   - the eight Table-1 invariants, checked on every transition that can
//     affect them, with failures reported as Violations;
//   - the abstraction relation with relaxed consistency mapping and the
//     roll-back mechanism (§4.4).
//
// In ModeFixedLP helping is disabled, every operation linearizes at its own
// fixed LP, and the Figure-1 phenomenon — a legal interleaving whose
// fixed-LP sequential history is illegal — surfaces as refinement
// violations.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/spec"
)

// Mode selects the linearization-point strategy.
type Mode uint8

// Modes.
const (
	// ModeHelpers is the paper's CRL-H: rename performs linothers at its LP.
	ModeHelpers Mode = iota
	// ModeFixedLP disables helping; used to demonstrate Figure 1.
	ModeFixedLP
)

// View is the monitor's window into the concrete file system, used by the
// invariant checks that relate ghost state to concrete state.
type View interface {
	// LockOwner returns the ID currently holding the inode's lock, or 0.
	LockOwner(ino spec.Inum) uint64
	// Snapshot renders the concrete tree as an abstract state. Callers
	// ensure quiescence or hold enough locks for a consistent walk.
	Snapshot() *spec.AFS
	// LockedInodes returns the inodes whose locks are currently held, for
	// the relaxed consistency mapping.
	LockedInodes() map[spec.Inum]bool
}

// Config configures a Monitor.
type Config struct {
	Mode Mode
	// Recorder, when set, receives invoke/lin/return events for offline
	// linearizability checking.
	Recorder *history.Recorder
	// CheckGoodAFS enables the (O(tree)) GoodAFS check after every abstract
	// transition. On by default in tests; costs little on small trees.
	CheckGoodAFS bool
	// MaxViolations bounds collected violations (0 = 1024).
	MaxViolations int
	// Obs, when set, receives the monitor's metrics (help/linearize/
	// violation counters, helplist length, rollback depth) and its
	// flight-recorder events (help, LP-commit, rollback, violation). On
	// the first violation the monitor snapshots the recorder for every
	// registered thread; FlightDump returns that causally ordered log.
	Obs *obs.Registry
	// OnViolation, when set, is invoked synchronously as each violation
	// is recorded — the live surfacing hook for long-running daemons
	// (atomfsd prints to stderr immediately instead of only reporting at
	// shutdown). It runs under the monitor's internal lock: it must not
	// call back into the Monitor or Session API.
	OnViolation func(Violation)
	// Journal, when set, receives every successfully executed mutating
	// Aop at the instant it runs (see AopJournal). Usually wired by
	// atomfs.WithJournal via SetJournal rather than set here.
	Journal AopJournal
}

// AopJournal is a durable sink for executed Aops — internal/wal.Log,
// wired through atomfs.WithJournal. AppendAop is called under the
// monitor's atomic block at the instant a mutating Aop executes on the
// abstract state, so journal order IS linearization order by
// construction — including Aops executed at an external LP (a rename's
// linothers, a cross-volume HelpCommit), which a call-site hook in the
// file system would record out of order. AppendAop must not block on
// I/O durability; it returns a wait closure (nil when nothing was
// journaled) that the operation calls after releasing its locks to
// block until the record is durable.
type AopJournal interface {
	AppendAop(op spec.Op, args spec.Args) func() error
}

// Monitor is the CRL-H runtime verifier.
type Monitor struct {
	mu   sync.Mutex
	cfg  Config
	afs  *spec.AFS
	view View

	pool     map[uint64]*Descriptor // the ThreadPool ghost state
	helplist []uint64               // helped, not yet concretely finished
	nextTid  uint64
	lockSeq  uint64

	stats      Stats
	violations []Violation

	obs        *monObs
	flightDump []obs.Event // recorder snapshot at the first violation
}

// monObs caches the monitor's instrument handles (nil when unobserved).
type monObs struct {
	rec           *obs.FlightRecorder
	violations    *obs.Counter
	linearized    *obs.Counter
	helped        *obs.Counter
	invChecks     *obs.Counter
	relChecks     *obs.Counter
	fastLPs       *obs.Counter
	fastLPFalls   *obs.Counter
	shortcuts     *obs.Counter
	shortcutFalls *obs.Counter
	aborted       *obs.Counter
	helplistLen   *obs.Gauge
	rollbackDepth *obs.Histogram
}

// isCtxErr reports whether err is (or wraps) a context cancellation or
// deadline outcome — the only results an aborted operation may return.
func isCtxErr(err error) bool {
	return err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

func newMonObs(reg *obs.Registry) *monObs {
	return &monObs{
		rec:           reg.FlightRecorder(),
		violations:    reg.Counter("core_violations_total"),
		linearized:    reg.Counter("core_linearized_total"),
		helped:        reg.Counter("core_helped_total"),
		invChecks:     reg.Counter("core_invariant_checks_total"),
		relChecks:     reg.Counter("core_relation_checks_total"),
		fastLPs:       reg.Counter("core_fastpath_lp_total"),
		fastLPFalls:   reg.Counter("core_fastpath_lp_fallback_total"),
		shortcuts:     reg.Counter("core_shortcut_entries_total"),
		shortcutFalls: reg.Counter("core_shortcut_fallback_total"),
		aborted:       reg.Counter("core_aborted_total"),
		helplistLen:   reg.Gauge("core_helplist_len"),
		rollbackDepth: reg.Histogram("core_rollback_depth"),
	}
}

// NewMonitor creates a monitor over a fresh (root-only) abstract state.
func NewMonitor(cfg Config) *Monitor {
	if cfg.MaxViolations == 0 {
		cfg.MaxViolations = 1024
	}
	m := &Monitor{
		cfg:  cfg,
		afs:  spec.New(),
		pool: map[uint64]*Descriptor{},
	}
	if cfg.Obs != nil {
		m.obs = newMonObs(cfg.Obs)
		cfg.Obs.GaugeFunc("core_pool_ops", func() int64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return int64(len(m.pool))
		})
	}
	return m
}

// AttachView wires the concrete-state window; the file system calls this
// once at construction.
func (m *Monitor) AttachView(v View) {
	m.mu.Lock()
	m.view = v
	m.mu.Unlock()
}

// SetJournal wires the Aop journal sink (see AopJournal); the file
// system calls this at construction when built WithJournal.
func (m *Monitor) SetJournal(j AopJournal) {
	m.mu.Lock()
	m.cfg.Journal = j
	m.mu.Unlock()
}

// Mode returns the configured linearization mode.
func (m *Monitor) Mode() Mode { return m.cfg.Mode }

// Violations returns the violations collected so far.
func (m *Monitor) Violations() []Violation {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Violation(nil), m.violations...)
}

// ResetViolations clears collected violations (between stress rounds).
func (m *Monitor) ResetViolations() {
	m.mu.Lock()
	m.violations = nil
	m.mu.Unlock()
}

func (m *Monitor) violate(kind ViolationKind, tid uint64, format string, args ...any) {
	if o := m.obs; o != nil {
		o.violations.Inc(tid)
		o.rec.Emit(tid, obs.EvViolation, 0, 0, uint64(kind))
		// First violation: snapshot the whole flight recorder — the
		// causally ordered event log of what the system was doing around
		// the failure. Thread IDs are per-operation, so the threads
		// involved in a violation (helpers, racing mutators) have often
		// already retired from the ThreadPool by the time an invariant
		// breaks; the recorder's bounded rings are the involvement window.
		if m.flightDump == nil {
			m.flightDump = o.rec.Snapshot()
		}
	}
	if len(m.violations) >= m.cfg.MaxViolations {
		return
	}
	v := Violation{Kind: kind, Tid: tid, Msg: fmt.Sprintf(format, args...)}
	m.violations = append(m.violations, v)
	if m.cfg.OnViolation != nil {
		m.cfg.OnViolation(v)
	}
}

// FlightDump returns the flight-recorder snapshot taken at the first
// violation (nil when unobserved or violation-free): the globally
// ordered recent events of every thread, captured when the invariant
// broke.
func (m *Monitor) FlightDump() []obs.Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]obs.Event(nil), m.flightDump...)
}

// AbstractState returns a deep copy of the current abstract state.
func (m *Monitor) AbstractState() *spec.AFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.afs.Clone()
}

// Session is the per-operation handle through which the instrumented file
// system reports its steps. A nil *Session is valid and ignores all calls,
// so unmonitored file systems pay only a nil check.
type Session struct {
	m    *Monitor
	d    *Descriptor
	done bool
}

// Begin registers an operation in the ThreadPool and returns its session.
func (m *Monitor) Begin(op spec.Op, args spec.Args) *Session {
	return m.begin(op, args, false)
}

// BeginRead registers a read-only operation (stat/read/readdir) that may
// first attempt a lockless fast-path walk. A read-only session takes no
// part in the LockPath ghost state until it reports a lock: its fast path
// linearizes at an explicit validation point (LPValidated) instead of
// inside a critical section, and on validation failure the operation falls
// back to the locked slow path, after which the session behaves exactly
// like an ordinary one.
func (m *Monitor) BeginRead(op spec.Op, args spec.Args) *Session {
	return m.begin(op, args, true)
}

func (m *Monitor) begin(op spec.Op, args spec.Args, readonly bool) *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextTid++
	tid := m.nextTid
	d := &Descriptor{
		tid:      tid,
		op:       op,
		args:     args,
		held:     map[spec.Inum]int{},
		started:  time.Now(),
		readonly: readonly,
	}
	src, dst, ok := expectedNames(op, args)
	d.walks = []*walk{{expect: src}}
	if op == spec.OpRename {
		d.walks = append(d.walks, &walk{expect: dst})
	}
	_ = ok
	m.pool[tid] = d
	if m.cfg.Recorder != nil {
		m.cfg.Recorder.Invoke(tid, op, args)
	}
	return &Session{m: m, d: d}
}

// Tid returns the session's thread ID (0 for a nil session).
func (s *Session) Tid() uint64 {
	if s == nil {
		return 0
	}
	return s.d.tid
}

// TryAbort is the cancellation decision point (the commit/abort table of
// DESIGN.md §9). Called by the file system when it observes its context
// done, before abandoning the operation. The outcome is decided inside
// the monitor's atomic block:
//
//   - If the operation's Aop has already executed — at its own fixed LP,
//     at a validated fast-path LP, or externally, helped by a rename's
//     linothers — the operation is past its linearization point: its
//     effect is (or is about to become) visible to other threads, so it
//     is non-cancellable. TryAbort returns false and the operation MUST
//     run to completion and return the linearized result, never a
//     context error.
//
//   - Otherwise the descriptor is marked aborted and TryAbort returns
//     true. From that instant the operation is invisible to helpers (a
//     rename's help-set computation skips aborted descriptors, so no
//     external LP can fire for it) and it is obliged to release every
//     lock it holds, apply no effect, and End with a context error. The
//     abstract state is untouched, so the relaxed abstraction relation
//     holds with the op's ghost entry simply deleted — the "rollback" of
//     an aborted op is the trivial one.
//
// A nil session (unmonitored FS) always permits the abort.
func (s *Session) TryAbort() bool {
	if s == nil {
		return true
	}
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	d := s.d
	if d.state == AopDone {
		return false // LP committed (possibly helped): point of no return
	}
	if d.crossPending {
		// A prepared cross record is published: the destination volume may
		// commit at any moment, so the source can no longer abort on its
		// own. The composed operation resolves through HelpCommit or
		// CrossAbort instead.
		return false
	}
	d.aborted = true
	m.stats.Aborted++
	if o := m.obs; o != nil {
		o.aborted.Inc(d.tid)
		o.rec.Emit(d.tid, obs.EvAbort, uint8(d.op), 0, uint64(len(d.held)))
	}
	return true
}

// Lock records that the session acquired the lock of ino, reached through
// directory entry name ("" for the root), on the given traversal branch.
// Called by the file system immediately after the acquisition, while still
// holding the lock.
func (s *Session) Lock(branch Branch, name string, ino spec.Inum) {
	if s == nil {
		return
	}
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lockSeq++
	rec := lockRec{ino: ino, name: name, seq: m.lockSeq}
	d := s.d
	switch {
	case branch == BranchBoth:
		for _, w := range d.walks {
			w.path = append(w.path, rec)
		}
	case branch == BranchSrc:
		d.srcWalk().path = append(d.srcWalk().path, rec)
	case branch == BranchDst && d.dstWalk() != nil:
		d.dstWalk().path = append(d.dstWalk().path, rec)
	default:
		m.violate(ViolProtocol, d.tid, "lock on branch %d without matching walk", branch)
		return
	}
	d.held[ino]++

	if d.aborted {
		m.violate(ViolCancellation, d.tid,
			"aborted %s %s acquired lock on inode %d", d.op, d.args, ino)
	}
	m.checkLastLocked(d)
	m.checkFutureLockPath(d, branch, name, ino)
	m.checkBypass(d, ino)
}

// Unlock records a lock release.
func (s *Session) Unlock(ino spec.Inum) {
	if s == nil {
		return
	}
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	d := s.d
	if d.held[ino] == 0 {
		m.violate(ViolProtocol, d.tid, "unlock of inode %d not held", ino)
		return
	}
	d.held[ino]--
	if d.held[ino] == 0 {
		delete(d.held, ino)
	}
	if d.state == AopPending {
		m.checkLastLocked(d)
	}
}

// LP is the fixed linearization point of a non-helping operation: if the
// operation has not been helped, its Aop executes on the abstract state
// here; if it has, the stored result stands and nothing happens (the
// operation's LP was external, inside some rename).
func (s *Session) LP() {
	if s == nil {
		return
	}
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	d := s.d
	if d.state == AopDone {
		return // externally linearized by a helper
	}
	// The shared-data protocol (§4.5): an LP publishes an effect on shared
	// state, so it must execute inside a critical section. (Operations
	// that fail before acquiring any lock linearize at End instead.)
	if len(d.held) == 0 {
		m.violate(ViolProtocol, d.tid, "%s %s: LP outside any critical section", d.op, d.args)
	}
	m.linearize(d, d.tid)
}

// LPValidated is the linearization point of a read-only fast path: the
// seqlock-validated lockless walk of atomfs (§5.1's RCU-walk analogue).
// Under the monitor's atomic block it evaluates validate — typically a
// SeqCount.Validate against the sequence snapshot taken before the walk —
// and, if the namespace is unchanged, executes the operation's Aop right
// there: the validation IS the external evidence that the lockless walk's
// observations were consistent with the current abstract state, so the LP
// may fire without any lock held (the shared-data protocol's critical-
// section obligation is discharged by the sequence counter instead).
//
// It returns whether validation passed. On false nothing is linearized;
// the operation must discard its fast-path result and retry on the locked
// slow path, whose ordinary LP then applies.
//
// Evaluating validate while holding the monitor's lock is what makes the
// claim sound: every namespace mutation bumps the sequence counter inside
// the same critical section in which its own LP executes, so "sequence
// unchanged, observed under m.mu" implies no mutation's Aop ran between
// the walk's snapshot and this LP.
func (s *Session) LPValidated(validate func() bool) bool {
	if s == nil {
		return validate()
	}
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	d := s.d
	if !d.readonly {
		m.violate(ViolProtocol, d.tid, "%s %s: LPValidated on a non-read-only session", d.op, d.args)
	}
	// A non-empty Helplist means some operation was linearized early by a
	// rename's linothers and its abstract effects are not concretely visible
	// yet. The slow path is ordered after such an operation by the locks it
	// still holds on the traversal path; the fast path bypasses those locks,
	// so it must not linearize past the helped effects. Fall back instead —
	// the slow path's lock coupling restores the ordering.
	if !validate() || len(m.helplist) != 0 {
		m.stats.FastFallbacks++
		if m.obs != nil {
			m.obs.fastLPFalls.Inc(d.tid)
		}
		return false
	}
	if d.state != AopDone {
		m.linearize(d, d.tid)
		m.stats.FastReads++
		if m.obs != nil {
			m.obs.fastLPs.Inc(d.tid)
		}
	}
	return true
}

// ShortcutEntry is the prefix-cache entry event of the write shortcut
// (DESIGN.md §11): the operation skipped lock coupling over a cached
// chain root → names[0] → … → names[k-1] and acquired, as its FIRST
// lock, the chain's deepest inode directly. inos are the chain's inodes
// including the root, so len(inos) == len(names)+1 and inos[k] is the
// entry inode, whose lock the caller concretely holds. validate is
// evaluated inside the monitor's atomic block and must report whether
// every stamped per-node detach generation is still current.
//
// The validated generations play the role of the skipped couplings: a
// node's generation is bumped inside the critical section of every
// operation that detaches it, so "all generations unchanged, observed
// under m.mu" implies each cached edge still exists in the abstract
// state — the monitor makes that claim checkable by replaying the chain
// against the abstract tree and raising ViolShortcut on any divergence.
// The replay resolves by NAME, like compareRelaxed: abstract and
// concrete inode numbers come from independent allocators (the spec
// allocates at the LP, the FS when the node is built, and the two
// orders legitimately differ across disjoint subtrees), so inode
// identity across the boundary is the path, never the number.
// On success the skipped acquisitions are synthesized into the walk
// ghost state with fresh lock sequence numbers, which re-establishes the
// non-bypassable invariant at the entry inode: help-set computation,
// interaction ordering, and the bypass checks all see the shortcut walk
// as if it had coupled from the root at this instant.
//
// Like LPValidated, the shortcut refuses whenever the Helplist is
// non-empty — a helped operation's effects are abstractly committed but
// not yet concretely visible, and only a root walk's lock coupling is
// ordered after them.
//
// It returns whether the entry stands. On false nothing was recorded;
// the operation must release the entry lock and fall back to the root
// walk.
func (s *Session) ShortcutEntry(names []string, inos []spec.Inum, validate func() bool) bool {
	if s == nil {
		return validate()
	}
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	d := s.d
	if len(names) == 0 || len(inos) != len(names)+1 {
		m.violate(ViolShortcut, d.tid, "%s %s: malformed shortcut chain (%d names, %d inos)",
			d.op, d.args, len(names), len(inos))
		return false
	}
	if len(d.held) != 0 {
		// The shortcut must be the walk's first acquisition: entering with
		// locks held would splice a detached-from-root segment into an
		// ongoing coupling and break the deadlock-freedom argument (the
		// entry lock is acquired while holding nothing).
		m.violate(ViolShortcut, d.tid, "%s %s: shortcut entry with %d locks already held",
			d.op, d.args, len(d.held))
		return false
	}
	if !validate() || len(m.helplist) != 0 {
		m.stats.ShortcutFallbacks++
		if m.obs != nil {
			m.obs.shortcutFalls.Inc(d.tid)
		}
		return false
	}
	// The generations' claim, made checkable: the cached chain must resolve
	// step by step — by name — in the current abstract state.
	cur := m.afs.Root
	for _, name := range names {
		n := m.afs.Imap[cur]
		if n == nil || n.Kind != spec.KindDir {
			m.violate(ViolShortcut, d.tid, "%s %s: shortcut ancestor inode %d is not a live directory",
				d.op, d.args, cur)
			return false
		}
		child, ok := n.Links[name]
		if !ok {
			m.violate(ViolShortcut, d.tid,
				"%s %s: validated chain diverges at %q: entry absent abstractly",
				d.op, d.args, name)
			return false
		}
		cur = child
	}
	if n := m.afs.Imap[cur]; n == nil || n.Kind != spec.KindDir {
		m.violate(ViolShortcut, d.tid, "%s %s: shortcut entry inode %d is not a live directory abstractly",
			d.op, d.args, cur)
		return false
	}
	entry := inos[len(inos)-1]
	if m.view != nil {
		if owner := m.view.LockOwner(entry); owner != d.tid {
			m.violate(ViolShortcut, d.tid, "%s %s: shortcut entry inode %d locked by t%d, not t%d",
				d.op, d.args, entry, owner, d.tid)
			return false
		}
	}
	if d.aborted {
		m.violate(ViolCancellation, d.tid,
			"aborted %s %s entered shortcut at inode %d", d.op, d.args, entry)
	}
	// Synthesize the skipped couplings: one lockRec per chain inode, fresh
	// sequence numbers, appended to every walk (the shortcut is always a
	// BranchBoth event — rename's per-branch walks diverge only below the
	// common prefix). Only the entry inode is concretely held.
	for i, ino := range inos {
		m.lockSeq++
		name := ""
		if i > 0 {
			name = names[i-1]
		}
		rec := lockRec{ino: ino, name: name, seq: m.lockSeq}
		for _, w := range d.walks {
			w.path = append(w.path, rec)
		}
	}
	d.held[entry]++
	m.checkLastLocked(d)
	m.checkBypass(d, entry)
	m.stats.ShortcutEntries++
	if m.obs != nil {
		m.obs.shortcuts.Inc(d.tid)
	}
	return true
}

// RenameLP is rename's linearization point. In ModeHelpers it runs
// linothers (Figure 5) first — finding every thread with a (recursive) path
// inter-dependency on this rename, ordering them by the linearize-before
// relation, and executing their Aops — then rename's own Aop. SrcPath is
// taken from the session's source walk.
func (s *Session) RenameLP() {
	if s == nil {
		return
	}
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	d := s.d
	if d.state == AopDone {
		// This rename was itself helped (recursive path inter-dependency,
		// Figure 4(c)). Every thread that had to linearize before it was
		// helped by the same linothers call, and no new dependent can have
		// arisen since: the rename's remaining traversal is protected by
		// the locks it already holds (§5.2). Nothing to do here.
		return
	}
	if len(d.held) == 0 {
		m.violate(ViolProtocol, d.tid, "rename %s: LP outside any critical section", d.args)
	}
	if m.cfg.Mode == ModeHelpers {
		m.linothers(d)
	}
	m.linearize(d, d.tid)
}

// End closes the operation: the concrete result is checked against the
// abstract result fixed at the LP (the simulation's return-value
// obligation), the descriptor leaves the ThreadPool, and helped entries
// leave the Helplist.
func (s *Session) End(concrete spec.Ret) {
	if s == nil {
		return
	}
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	d := s.d
	if s.done {
		m.violate(ViolProtocol, d.tid, "session ended twice")
		return
	}
	s.done = true
	if d.crossPending {
		m.violate(ViolCross, d.tid,
			"%s %s ended with its cross record still prepared", d.op, d.args)
	}
	if d.aborted {
		// Cancellation-consistency at the return boundary: the op's Aop
		// never ran, so it must report a context error (never a made-up
		// success or a stale result), must have released every lock, and —
		// since TryAbort refuses once AopDone — must not somehow have been
		// linearized after aborting.
		if d.state == AopDone {
			m.violate(ViolCancellation, d.tid,
				"%s %s: aborted op was linearized (helper t%d)", d.op, d.args, d.helper)
		}
		if !isCtxErr(concrete.Err) {
			m.violate(ViolCancellation, d.tid,
				"aborted %s %s returned %s, want a context error", d.op, d.args, concrete)
		}
		if len(d.held) != 0 {
			m.violate(ViolCancellation, d.tid,
				"aborted %s %s ended still holding %d inode locks", d.op, d.args, len(d.held))
		}
	} else {
		if d.state != AopDone {
			// An operation that fails before reaching a lock-protected LP
			// (e.g. a path parse error) linearizes at its return.
			m.linearize(d, d.tid)
		}
		if isCtxErr(concrete.Err) && !isCtxErr(d.ret.Err) {
			// The dual rule: an op whose LP committed (fixed, validated or
			// helped) is past the point of no return and must surface its
			// linearized result — returning a context error would un-happen
			// an effect other threads may already depend on.
			m.violate(ViolCancellation, d.tid,
				"%s %s: LP-committed op returned %s, abstract %s (helper t%d)",
				d.op, d.args, concrete, d.ret, d.helper)
		} else if !concrete.Equal(d.ret) {
			m.violate(ViolRefinement, d.tid,
				"%s %s: concrete returned %s, abstract %s (helper t%d)",
				d.op, d.args, concrete, d.ret, d.helper)
		}
	}
	m.removeFromHelplist(d.tid)
	delete(m.pool, d.tid)
	m.checkHelplistConsistency()
	if m.cfg.Recorder != nil {
		m.cfg.Recorder.Return(d.tid, concrete)
	}
}

// JournalWait hands over the durability wait of the session's journaled
// Aop, or nil when nothing was journaled (no Journal sink, a read, a
// failed or aborted Aop). Called by the file system after End, with no
// locks held: the wait may flush the device (group commit) and block.
func (s *Session) JournalWait() func() error {
	if s == nil {
		return nil
	}
	m := s.m
	m.mu.Lock()
	defer m.mu.Unlock()
	w := s.d.jwait
	s.d.jwait = nil
	return w
}

// linearize executes d's Aop on the abstract state and marks it done.
// helper is the thread performing the linearization (== d.tid at a fixed
// LP). Caller holds m.mu.
func (m *Monitor) linearize(d *Descriptor, helper uint64) {
	if d.aborted {
		// An aborted op's Aop must never run — not at its own LP (the op
		// should have left after TryAbort) and not at a helper's (linothers
		// skips aborted descriptors). Reaching here is a monitor-API misuse
		// by whichever thread tried to linearize.
		m.violate(ViolCancellation, d.tid,
			"aborted %s %s linearized by t%d", d.op, d.args, helper)
		return
	}
	ret, effects := m.afs.Apply(d.op, d.args)
	d.state = AopDone
	d.ret = ret
	d.helper = helper
	d.effects = effects
	if j := m.cfg.Journal; j != nil && ret.Err == nil && d.op.Mutates() {
		// The LP commit point is the journal append point: the record is
		// appended here, in linearization order, and the operation picks
		// up the durability wait after its unlocks (JournalWait).
		d.jwait = j.AppendAop(d.op, d.args)
	}
	m.stats.Linearized++
	if o := m.obs; o != nil {
		o.linearized.Inc(d.tid)
		o.rec.Emit(d.tid, obs.EvLPCommit, uint8(d.op), 0, helper)
	}
	if helper != d.tid {
		m.stats.Helped++
		// External LP: record the Helplist entry and initialize the
		// FutLockPath from the names not yet traversed.
		m.helplist = append(m.helplist, d.tid)
		for _, w := range d.walks {
			if n := w.consumed(); n < len(w.expect) {
				w.future = append([]string(nil), w.expect[n:]...)
			}
		}
		if o := m.obs; o != nil {
			o.helped.Inc(d.tid)
			o.rec.Emit(d.tid, obs.EvHelp, uint8(d.op), 0, helper)
			o.helplistLen.Set(int64(len(m.helplist)))
		}
		m.checkHelplistConsistency()
	}
	if m.cfg.CheckGoodAFS {
		if err := m.afs.GoodAFS(); err != nil {
			m.violate(ViolGoodAFS, d.tid, "after %s %s: %v", d.op, d.args, err)
		}
	}
	if m.cfg.Recorder != nil {
		m.cfg.Recorder.Lin(d.tid, helper, d.op, ret)
	}
}

func (m *Monitor) removeFromHelplist(tid uint64) {
	for i, t := range m.helplist {
		if t == tid {
			m.helplist = append(m.helplist[:i], m.helplist[i+1:]...)
			if m.obs != nil {
				m.obs.helplistLen.Set(int64(len(m.helplist)))
			}
			return
		}
	}
}

// Quiesce verifies end-of-campaign conditions: no pending descriptors and,
// when a View is attached, the abstract-concrete relation in its quiescent
// form (full structural equality after rolling back any helped effects).
func (m *Monitor) Quiesce() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pool) != 0 {
		return fmt.Errorf("core: %d operations still registered", len(m.pool))
	}
	if len(m.helplist) != 0 {
		return fmt.Errorf("core: helplist not empty at quiescence")
	}
	if m.view != nil {
		if err := m.checkRelationLocked(); err != nil {
			m.violate(ViolRelation, 0, "%v", err)
			return err
		}
	}
	return nil
}

// CheckRelation runs the abstraction-relation check now, using the relaxed
// consistency mapping (locked inodes are exempt) and the roll-back
// mechanism for helped-but-unfinished operations. Deterministic scenario
// tests call it at gate points.
func (m *Monitor) CheckRelation() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.view == nil {
		return fmt.Errorf("core: no view attached")
	}
	if err := m.checkRelationLocked(); err != nil {
		m.violate(ViolRelation, 0, "%v", err)
		return err
	}
	return nil
}

// helpedEffects gathers effects of helped-pending ops in Helplist order.
func (m *Monitor) helpedEffects() []spec.Effect {
	var all []spec.Effect
	for _, tid := range m.helplist {
		if d := m.pool[tid]; d != nil {
			all = append(all, d.effects...)
		}
	}
	return all
}

func (m *Monitor) checkRelationLocked() error {
	concrete := m.view.Snapshot()
	if concrete == nil {
		return nil // view cannot produce a snapshot right now
	}
	effects := m.helpedEffects()
	if o := m.obs; o != nil {
		o.relChecks.Inc(0)
		o.rollbackDepth.Observe(0, int64(len(effects)))
		o.rec.Emit(0, obs.EvRollback, 0, 0, uint64(len(effects)))
	}
	rolled := spec.Rollback(m.afs, effects)
	locked := m.view.LockedInodes()
	return compareRelaxed(rolled, concrete, locked)
}

// CompareStates checks the abstraction relation between an abstract and
// a concrete state directly — the same name-based lockstep walk the
// monitor runs at Quiesce, exposed for callers that hold both states
// outside a live monitor. Journal recovery is the canonical user: the
// replayed abstract state on one side, a concrete file system rebuilt
// from it on the other, with no inodes locked (lockedCon nil) because a
// recovered system is quiescent by construction.
func CompareStates(abs, con *spec.AFS, lockedCon map[spec.Inum]bool) error {
	return compareRelaxed(abs, con, lockedCon)
}

// compareRelaxed walks the abstract (rolled-back) and concrete trees in
// lockstep. A concrete inode whose lock is held is exempt from the content
// check and its subtree is skipped — the paper's relaxed consistency
// mapping, which only constrains unlocked inodes.
func compareRelaxed(abs, con *spec.AFS, lockedCon map[spec.Inum]bool) error {
	var walkCmp func(path string, a, c spec.Inum) error
	walkCmp = func(path string, a, c spec.Inum) error {
		if path == "" {
			path = "/"
		}
		if lockedCon[c] {
			return nil // relaxed: locked inodes unconstrained
		}
		an, cn := abs.Imap[a], con.Imap[c]
		if an == nil || cn == nil {
			return fmt.Errorf("relation: missing inode at %s (abs=%v con=%v)", path, an != nil, cn != nil)
		}
		if an.Kind != cn.Kind {
			return fmt.Errorf("relation: kind mismatch at %s: abs %s, con %s", path, an.Kind, cn.Kind)
		}
		if an.Kind == spec.KindFile {
			if string(an.Data) != string(cn.Data) {
				return fmt.Errorf("relation: content mismatch at %s: abs %d bytes, con %d bytes", path, len(an.Data), len(cn.Data))
			}
			return nil
		}
		if len(an.Links) != len(cn.Links) {
			return fmt.Errorf("relation: entry count mismatch at %s: abs %d, con %d", path, len(an.Links), len(cn.Links))
		}
		for name, achild := range an.Links {
			cchild, ok := cn.Links[name]
			if !ok {
				return fmt.Errorf("relation: entry %q at %s missing concretely", name, path)
			}
			child := path + "/" + name
			if path == "/" {
				child = "/" + name
			}
			if err := walkCmp(child, achild, cchild); err != nil {
				return err
			}
		}
		return nil
	}
	return walkCmp("", abs.Root, con.Root)
}

// Stats summarizes the monitor's activity: how many operations were
// linearized, how many at external LPs (helped), and the largest help set
// any single linothers call processed.
type Stats struct {
	Linearized int
	Helped     int
	MaxHelpSet int
	// FastReads counts read-only operations linearized at a validation
	// point (lockless fast path); FastFallbacks counts validation failures
	// that sent the operation to the locked slow path.
	FastReads     int
	FastFallbacks int
	// ShortcutEntries counts write-path walks admitted at a prefix-cache
	// entry inode (skipped couplings synthesized from validated detach
	// generations); ShortcutFallbacks counts entries refused — stale
	// generations or a non-empty Helplist — that re-walked from the root.
	ShortcutEntries   int
	ShortcutFallbacks int
	// Aborted counts operations cancelled pre-LP via TryAbort: no Aop ran,
	// the caller saw a context error. (TryAbort refusals — cancellations
	// that arrived after the LP — are not aborts; those ops complete and
	// count under Linearized/Helped as usual.)
	Aborted int
	// CrossCommits counts cross-volume detaches this monitor externally
	// linearized at a destination volume's HelpCommit; CrossAborts counts
	// prepared detaches resolved as failures by CrossAbort. Both count on
	// the SOURCE volume's monitor (the destination's attach counts under
	// Linearized like any fixed-LP operation).
	CrossCommits int
	CrossAborts  int
}

// Stats returns the activity counters.
func (m *Monitor) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
