// Package atomfs implements AtomFS: the fine-grained, lock-coupling,
// linearizable, in-memory concurrent file system of the paper (§5, §6).
//
// Design, following the paper:
//
//   - one lock per inode (internal/ilock), directories as hash tables of
//     linked lists (internal/dir), file data as fixed-size arrays of block
//     indexes over a ramdisk (internal/file, internal/block);
//   - path traversal uses lock coupling — the next inode's lock is always
//     acquired before the current inode's lock is released — which makes
//     AtomFS satisfy the non-bypassable criterion of §5.1 by construction;
//   - rename first traverses (hand-over-hand) to the last common ancestor
//     of source and destination, and releases its lock only after both the
//     source and destination directories are locked (§5.2), which keeps
//     LockPaths acyclic and the traversal deadlock-free;
//   - every lock acquisition/release and every linearization point reports
//     to an attached CRL-H monitor (internal/core), with rename using the
//     helper LP (linothers) on its success path.
//
// Options provide the paper's evaluation variants: WithBigLock builds the
// coarse-grained AtomFS-biglock baseline of §7.3, and WithUnsafeTraversal
// deliberately breaks lock coupling (release-then-lock) to demonstrate the
// non-bypassable violations of Figure 8.
package atomfs

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/dir"
	"repro/internal/file"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/ilock"
	"repro/internal/obs"
	"repro/internal/pathname"
	"repro/internal/spec"
	"repro/internal/wal"
)

// HookPoint identifies an instrumentation point for deterministic
// interleaving tests.
type HookPoint uint8

// Hook points.
const (
	// HookLocked fires immediately after a traversal locks an inode.
	HookLocked HookPoint = iota + 1
	// HookBeforeLP fires just before an operation's linearization point.
	HookBeforeLP
	// HookAfterLP fires just after it.
	HookAfterLP
	// HookUnsafeWindow fires, under WithUnsafeTraversal only, in the
	// window where the traversal holds no lock: after releasing the
	// parent and before acquiring the child (Figure 8's bypass window).
	HookUnsafeWindow
	// HookStepped fires after a coupled traversal step completes (child
	// locked, parent released); the operation holds exactly the child.
	HookStepped
	// HookFastWalk fires, under WithFastPath only, right after a read-only
	// operation snapshots the mutation sequence counter and before its
	// lockless walk: parking here lets a test commit a namespace mutation
	// inside the fast path's window and force a validation failure.
	HookFastWalk
	// HookFastLP fires just before the fast path's validation/LP attempt.
	HookFastLP

	// The points below are the schedule-fuzzer yield surface
	// (internal/schedfuzz): together with the points above they bracket
	// every blocking acquisition and every cancellation poll, so a
	// virtual scheduler that parks operations at hook firings (a) has a
	// decision point before anything that can block and (b) can predict,
	// from the events alone, which parked operation would block if
	// resumed. All of them are no-ops unless a hook is installed.

	// HookLockAttempt fires immediately BEFORE a traversal tries to
	// acquire an inode lock (Name/Ino identify the target). The caller
	// may block in the acquisition right after this point.
	HookLockAttempt
	// HookUnlocked fires immediately after a traversal releases an inode
	// lock (Ino identifies it).
	HookUnlocked
	// HookCancelPoll fires at every cancellation poll (the entry of the
	// op's context check at a coupling step or fast-path start).
	HookCancelPoll
	// HookSeqAttempt fires, under WithFastPath only, before a namespace
	// mutation tries to enter the seqlock write section (it may block on
	// the section mutex right after); HookSeqRelease fires after it has
	// left the section and released the mutex.
	HookSeqAttempt
	HookSeqRelease
	// HookFastSnap fires, under WithFastPath only, before a read-only
	// operation snapshots the mutation sequence counter. The snapshot
	// spins while a write section is open, so a scheduler must not
	// resume a parked operation here while a mutator sits inside its
	// Begin/End section.
	HookFastSnap
	// HookFastLock fires before the fast path locks its target inode
	// (Ino identifies it; the acquisition may block), and
	// HookFastUnlock after it releases it. These acquisitions are
	// invisible to the monitor (a fast-path read contributes no
	// LockPath), so they get their own points instead of reusing
	// HookLockAttempt/HookUnlocked.
	HookFastLock
	HookFastUnlock
	// HookPrefixLookup fires, under WithPrefixCache only, before a
	// write-path walk probes the prefix cache for its deepest cached
	// ancestor; HookPrefixValidate fires after the entry inode's lock is
	// held and before the stamped detach generations are validated under
	// it — parking there lets a test (or the schedule fuzzer) commit a
	// rename inside the shortcut's window and force the fallback.
	HookPrefixLookup
	HookPrefixValidate
	// HookGenStamp fires, under WithPrefixCache only, inside the critical
	// section of an operation that detaches an inode (unlink, rmdir,
	// rename source, rename's overwritten victim), just before its detach
	// generation is bumped. Ino identifies the detached inode.
	HookGenStamp
)

// HookEvent describes one hook firing.
type HookEvent struct {
	Point HookPoint
	Op    spec.Op
	Tid   uint64
	Name  string    // entry name just locked (HookLocked)
	Ino   spec.Inum // inode just locked (HookLocked)
}

// HookFunc receives hook events; it runs on the operation's goroutine, so
// blocking in it pauses the operation — which is exactly how the scenario
// tests build precise interleavings.
type HookFunc func(HookEvent)

// node is a concrete inode.
type node struct {
	ino  spec.Inum
	kind spec.Kind
	lk   ilock.Mutex
	dir  *dir.Table[*node] // directories
	data *file.Data        // files
	ref  refState          // §5.4 FD support: pin count + unlinked flag
	// lockedNs is the acquisition timestamp of the current traced holder
	// (obs lock-hold accounting). Written and read only while holding lk.
	lockedNs int64
	// gen is the node's detach generation (WithPrefixCache): bumped
	// twice — seqlock-style, odd while in flight — inside the critical
	// section of every operation that detaches this node from the
	// namespace, under this node's lock. A prefix-cache entry stamps the
	// generation of every chain node; "all stamps still current" proves no
	// cached edge was unlinked since stamping, because removing an edge
	// requires detaching its child. Creates bump nothing: inserting a new
	// edge cannot change what an existing cached chain resolves to.
	gen atomic.Uint64
}

// FS is an AtomFS instance. It implements fsapi.FS.
type FS struct {
	root    *node
	store   *block.Store
	mon     *core.Monitor
	hook    atomic.Pointer[HookFunc]
	nextIno atomic.Int64
	nextTid atomic.Uint64

	bigLock bool
	big     ilock.Mutex
	unsafe  bool

	// Lockless read fast path (WithFastPath): mseq is the per-FS namespace
	// mutation sequence counter, bumped inside the critical section of
	// every ins/del/rename (the analogue of Linux's rename_lock, widened
	// to all namespace mutations); seqMu serializes the bump sections so
	// mseq keeps seqlock semantics. Read-only operations snapshot mseq,
	// walk without locks, and linearize at a successful re-validation.
	fastPath  bool
	seqMu     sync.Mutex
	mseq      ilock.SeqCount
	fastHits  atomic.Uint64
	fastFalls atomic.Uint64

	// Adaptive fast-path veto: consecutive fallbacks (fastStreak) past
	// fastStreakLimit mean the mix is write-dominated and every attempt
	// is wasted entry cost; the next fastVetoWindow reads then skip the
	// fast path outright (fastAdmit). A hit resets the streak, so the
	// veto lifts as soon as reads start succeeding again.
	fastStreak atomic.Uint32
	fastVeto   atomic.Int32
	fastVetoed atomic.Uint64

	// Seqlock-validated prefix cache (WithPrefixCache): write-path walks
	// start lock coupling at the deepest cached ancestor instead of the
	// root, validated by per-node detach generations (node.gen).
	prefix       bool
	pcache       *prefixCache
	prefixHits   atomic.Uint64
	prefixMisses atomic.Uint64
	prefixInvals atomic.Uint64

	// Durable journal (WithJournal): every mutating Aop is appended by
	// the monitor at its LP commit point (core.AopJournal); operations
	// block on group-commit durability after their unlocks. jerrs counts
	// journal failures the file system swallowed — after a (injected)
	// device crash the file system keeps serving from memory and the
	// crash harness reads the log's Broken state instead.
	jlog  *wal.Log
	jerrs atomic.Uint64

	// Observability (WithObs): cached instrument handles; nil when the
	// file system runs against the no-op registry.
	obs       *obsPack
	obsReg    *obs.Registry
	obsSample uint64

	regMu    sync.RWMutex
	registry map[spec.Inum]*node
}

var _ fsapi.FS = (*FS)(nil)

// Option configures New.
type Option func(*FS)

// WithMonitor attaches a CRL-H monitor. Incompatible with WithBigLock
// (the big-lock variant takes no per-inode locks for the monitor to
// observe).
func WithMonitor(m *core.Monitor) Option { return func(fs *FS) { fs.mon = m } }

// WithBigLock builds the coarse-grained baseline of §7.3: every operation
// holds one global lock for its whole duration.
func WithBigLock() Option { return func(fs *FS) { fs.bigLock = true } }

// WithUnsafeTraversal replaces lock coupling with release-then-acquire
// traversal, opening the bypass window of Figure 8. For demonstrations
// only.
func WithUnsafeTraversal() Option { return func(fs *FS) { fs.unsafe = true } }

// WithHook installs an instrumentation hook.
func WithHook(h HookFunc) Option { return func(fs *FS) { fs.SetHook(h) } }

// WithFastPath enables the lockless read fast path: Stat, Read and Readdir
// first attempt an RCU-walk-style traversal that takes no locks on the way
// down, locks only the final inode, and linearizes at a successful
// validation of the namespace sequence counter; on a conflicting mutation
// they fall back to the unchanged lock-coupled slow path. Incompatible
// with WithBigLock (big-lock operations mutate without per-inode locks, so
// a fast-path reader could observe torn file data).
func WithFastPath() Option { return func(fs *FS) { fs.fastPath = true } }

// WithPrefixCache enables the seqlock-validated path-prefix cache: every
// lock-coupled walk (the write path and the reads' slow path) looks up
// the deepest cached ancestor of its target, locks that inode directly,
// validates the chain's stamped detach generations under the lock — via
// the monitor's ShortcutEntry when monitored — and only then starts lock
// coupling; any stale generation falls back to the unchanged root walk.
// Rename and unlink bump the generations of the inodes they detach,
// invalidating exactly the prefixes that ran through them — no global
// epoch. Incompatible with WithBigLock (no per-inode locks to enter at).
// Composes with WithFastPath: reads keep their lockless fast path and
// shortcut only when they fall back to the locked walk.
func WithPrefixCache() Option { return func(fs *FS) { fs.prefix = true } }

// WithJournal attaches a durable write-ahead operation journal
// (DESIGN.md §14). Requires WithMonitor: the monitor's LP commit point
// is the journal append point — every mutating Aop is appended under
// the monitor's atomic block at the instant it executes, so journal
// order is the linearization order by construction (including Aops
// executed at an external LP by a rename's linothers or a cross-volume
// HelpCommit, which no call-site hook could order correctly). Each
// operation then waits for group-commit durability after releasing its
// locks, before returning to the client.
func WithJournal(l *wal.Log) Option { return func(fs *FS) { fs.jlog = l } }

// WithBlocks sizes the ramdisk in blocks (default 1<<18 blocks = 1 GiB).
func WithBlocks(n int) Option {
	return func(fs *FS) { fs.store = block.NewStore(n) }
}

// WithObs attaches an observability registry: per-op-type latency and
// counts, fast-path hit/fallback/seq-spin counters, lock wait/hold
// histograms, and flight-recorder events. A nil registry leaves the file
// system on the zero-overhead no-op path.
func WithObs(reg *obs.Registry) Option { return func(fs *FS) { fs.obsReg = reg } }

// WithObsSampleEvery sets the read-operation trace sampling period (1 =
// trace every operation; default DefaultObsSampleEvery). Rounded up to a
// power of two. Mutating operations and fast-path fallbacks are always
// traced regardless.
func WithObsSampleEvery(n uint64) Option { return func(fs *FS) { fs.obsSample = n } }

// New creates an empty AtomFS.
func New(opts ...Option) *FS {
	fs := &FS{registry: map[spec.Inum]*node{}}
	for _, o := range opts {
		o(fs)
	}
	if fs.store == nil {
		fs.store = block.NewStore(1 << 18)
	}
	if fs.bigLock && fs.mon != nil {
		panic("atomfs: WithBigLock cannot be monitored")
	}
	if fs.bigLock && fs.fastPath {
		panic("atomfs: WithBigLock cannot take the lockless fast path")
	}
	if fs.bigLock && fs.prefix {
		panic("atomfs: WithBigLock cannot use the prefix cache")
	}
	if fs.prefix {
		fs.pcache = newPrefixCache()
	}
	fs.root = &node{ino: spec.RootIno, kind: spec.KindDir, dir: dir.New[*node]()}
	fs.nextIno.Store(int64(spec.RootIno) + 1)
	fs.registry[spec.RootIno] = fs.root
	if fs.jlog != nil && fs.mon == nil {
		panic("atomfs: WithJournal requires WithMonitor (the LP commit point is the append point)")
	}
	if fs.mon != nil {
		fs.mon.AttachView((*view)(fs))
		if fs.jlog != nil {
			fs.mon.SetJournal((*jsink)(fs))
		}
	}
	if fs.obsReg != nil {
		fs.obs = newObsPack(fs, fs.obsReg, fs.obsSample)
	}
	return fs
}

// Name identifies the variant in benchmark tables.
func (fs *FS) Name() string {
	switch {
	case fs.bigLock:
		return "atomfs-biglock"
	case fs.unsafe:
		return "atomfs-unsafe"
	case fs.fastPath && fs.prefix:
		return "atomfs-fastpath-prefix"
	case fs.fastPath:
		return "atomfs-fastpath"
	case fs.prefix:
		return "atomfs-prefix"
	default:
		return "atomfs"
	}
}

// FastPathStats reports how many read-only operations completed on the
// lockless fast path and how many fell back to the lock-coupled slow path
// (validation failure or torn read). Zero/zero unless WithFastPath.
func (fs *FS) FastPathStats() (hits, fallbacks uint64) {
	return fs.fastHits.Load(), fs.fastFalls.Load()
}

// PrefixCacheStats reports the prefix cache's traffic: hits are walks
// that entered at a cached ancestor, misses are walks that coupled from
// the root (no usable entry, a stale validation, or a monitor refusal),
// and invalidations are stale entries discarded because a stamped detach
// generation moved. All zero unless WithPrefixCache.
func (fs *FS) PrefixCacheStats() (hits, misses, invalidations uint64) {
	return fs.prefixHits.Load(), fs.prefixMisses.Load(), fs.prefixInvals.Load()
}

// FastPathVetoed reports how many read operations skipped the fast path
// under the adaptive write-domination veto; they count in neither
// FastPathStats total.
func (fs *FS) FastPathVetoed() uint64 { return fs.fastVetoed.Load() }

// Journal returns the attached write-ahead log (nil unless WithJournal).
func (fs *FS) Journal() *wal.Log { return fs.jlog }

// JournalErrors reports how many journal appends or durability waits
// failed and were swallowed (nonzero only after a device crash).
func (fs *FS) JournalErrors() uint64 { return fs.jerrs.Load() }

// jsink adapts FS's journal to the monitor's AopJournal. AppendAop runs
// under the monitor's atomic block — the LP commit point — so the
// record sequence is the linearization order; the returned wait carries
// the group-commit durability ticket back to the operation's end.
type jsink FS

func (s *jsink) AppendAop(op spec.Op, args spec.Args) func() error {
	fs := (*FS)(s)
	tk, err := fs.jlog.Append(op, args)
	if err != nil {
		fs.jerrs.Add(1)
		return nil
	}
	return tk.Wait
}

func (fs *FS) newNode(kind spec.Kind) *node {
	n := &node{ino: spec.Inum(fs.nextIno.Add(1) - 1), kind: kind}
	if kind == spec.KindDir {
		n.dir = dir.New[*node]()
	} else {
		n.data = file.New(fs.store)
	}
	fs.regMu.Lock()
	fs.registry[n.ino] = n
	fs.regMu.Unlock()
	return n
}

// op carries one operation's context down the traversal helpers.
type op struct {
	fs   *FS
	s    *core.Session // nil when unmonitored
	ctx  context.Context
	tid  uint64
	kind spec.Op
	// committed latches a TryAbort refusal: the op's LP already executed
	// (fixed, validated, or helped by a rename), so it is past the point
	// of no return and further cancellation checks short-circuit — the op
	// runs to completion and returns its linearized result.
	committed bool
	// Reusable path-component buffers, pooled with the op. Components are
	// substrings of the caller's path string, so nothing they point at is
	// recycled; only the slice storage is. Rename needs both.
	parts  []string
	parts2 []string
	// ptid is the struct's persistent unmonitored thread id. A pooled op
	// is exclusively owned between Get and Put, so a once-per-struct id is
	// unique among live operations — no per-operation atomic increment.
	ptid uint64
	// Observability state (meaningful only while fs.obs != nil): traced
	// marks this op as carrying full begin/end and lock tracing; startNs
	// is the traced begin timestamp (0 = unset); spins is the seqlock
	// retry count of the last fast-path snapshot; fallReason is why the
	// last fast-path attempt fell back (fallNone while it didn't).
	startNs    int64
	spins      uint32
	fallReason uint8
	traced     bool
	// Prefix-cache walk recording (WithPrefixCache): while chainRec is
	// set, the coupled walk appends each locked node and its detach
	// generation — read under that node's lock, so necessarily even and
	// stable — to the pooled chain buffers; a successful traverse stores
	// the chain as a cache entry.
	chainRec bool
	chainN   []*node
	chainG   []uint64
}

// split parses path into o's pooled component buffer; the result is valid
// until o.end. Grown storage is kept for the op's next reuse.
func (o *op) split(path string) ([]string, error) {
	parts, err := pathname.SplitAppend(path, o.parts[:0])
	if cap(parts) > cap(o.parts) {
		o.parts = parts
	}
	return parts, err
}

// splitDir is split for a parent-components + final-name parse.
func (o *op) splitDir(path string) ([]string, string, error) {
	dir, name, err := pathname.SplitDirAppend(path, o.parts[:0])
	if cap(dir) > cap(o.parts) {
		o.parts = dir
	}
	return dir, name, err
}

// splitDir2 is splitDir on the second buffer (rename's destination path).
func (o *op) splitDir2(path string) ([]string, string, error) {
	dir, name, err := pathname.SplitDirAppend(path, o.parts2[:0])
	if cap(dir) > cap(o.parts2) {
		o.parts2 = dir
	}
	return dir, name, err
}

// opPool recycles op structs across operations: begin is on every hot
// path, and the struct never outlives its end call. Pooled ops carry
// their unmonitored tid (1<<32 range; ref-FD operations use 1<<33, and
// monitored sessions use small monitor-issued ids, so the ranges never
// collide).
var opTids atomic.Uint64
var opPool = sync.Pool{New: func() any { return &op{ptid: opTids.Add(1) | 1<<32} }}

func (fs *FS) begin(ctx context.Context, kind spec.Op, args spec.Args) *op {
	return fs.beginOp(ctx, kind, args, false)
}

// beginRead starts a read-only operation: under the monitor it registers a
// read-only session, whose fast path may linearize at a validation point.
func (fs *FS) beginRead(ctx context.Context, kind spec.Op, args spec.Args) *op {
	return fs.beginOp(ctx, kind, args, fs.fastPath)
}

func (fs *FS) beginOp(ctx context.Context, kind spec.Op, args spec.Args, readonly bool) *op {
	o := opPool.Get().(*op)
	o.fs, o.kind, o.s = fs, kind, nil
	o.ctx, o.committed = ctx, false
	if fs.mon != nil {
		if readonly {
			o.s = fs.mon.BeginRead(kind, args)
		} else {
			o.s = fs.mon.Begin(kind, args)
		}
		o.tid = o.s.Tid()
	} else {
		o.tid = o.ptid
	}
	if p := fs.obs; p != nil {
		o.obsBegin(p, kind)
	}
	if fs.bigLock {
		fs.big.Lock(o.tid)
	}
	return o
}

// end closes the operation, converts the result, and recycles the op.
func (o *op) end(ret spec.Ret) spec.Ret {
	if o.fs.bigLock {
		o.fs.big.Unlock(o.tid)
	}
	if p := o.fs.obs; p != nil {
		o.obsEnd(p)
	}
	o.s.End(ret)
	if o.fs.jlog != nil {
		// Durability gate: block on the group-commit flush covering this
		// operation's journal record. All inode locks are already released
		// (end runs after the unlock path), so waiters stall no one and
		// concurrent committers coalesce behind one device flush. Journal
		// failures (an injected device crash) are counted, not surfaced:
		// the in-memory result stands and the crash harness reads the
		// log's Broken state.
		if w := o.s.JournalWait(); w != nil {
			if err := w(); err != nil {
				o.fs.jerrs.Add(1)
			}
		}
	}
	o.fs, o.s, o.ctx = nil, nil, nil
	opPool.Put(o)
	return ret
}

// cancelled polls the operation's context at a traversal step — called
// before every lock acquisition — and decides abort vs. commit under the
// monitor's atomic block. It returns the context error when the op must
// unwind (the caller releases whatever it holds and ends with that error,
// applying no effect), or nil to proceed. A TryAbort refusal means the
// op's Aop already executed — typically helped to an external LP by a
// concurrent rename — so the op is latched committed: it finishes its
// remaining (FutLockPath-bound) traversal and returns the helped result,
// never a context error.
func (o *op) cancelled() error {
	if o.committed || o.ctx == nil {
		return nil
	}
	o.fire(HookCancelPoll, "", 0)
	select {
	case <-o.ctx.Done():
	default:
		return nil
	}
	if !o.s.TryAbort() {
		o.committed = true
		if p := o.fs.obs; p != nil {
			p.abortRefused(o.tid, o.kind)
		}
		return nil
	}
	err := o.ctx.Err()
	if p := o.fs.obs; p != nil {
		p.cancel(o.tid, o.kind, err)
	}
	return err
}

// mutBegin/mutEnd bracket the committing section of a namespace mutation
// (link insert/delete plus the LP) with the fast path's sequence counter.
// seqMu serializes concurrent mutators' bump sections — mutations deep in
// disjoint subtrees hold disjoint inode locks — so the counter keeps
// seqlock semantics. Without WithFastPath there are no lockless readers to
// invalidate and the slow path stays byte-for-byte as before.
func (o *op) mutBegin() {
	if o.fs.fastPath {
		o.fire(HookSeqAttempt, "", 0)
		o.fs.seqMu.Lock()
		o.fs.mseq.Begin()
	}
}

func (o *op) mutEnd() {
	if o.fs.fastPath {
		o.fs.mseq.End()
		o.fs.seqMu.Unlock()
		o.fire(HookSeqRelease, "", 0)
	}
}

// SetHook installs (or, with nil, removes) the instrumentation hook.
// Scenario tests set it after building their initial tree so that setup
// operations do not fire it.
func (fs *FS) SetHook(h HookFunc) {
	if h == nil {
		fs.hook.Store(nil)
		return
	}
	fs.hook.Store(&h)
}

func (o *op) fire(p HookPoint, name string, ino spec.Inum) {
	if h := o.fs.hook.Load(); h != nil {
		(*h)(HookEvent{Point: p, Op: o.kind, Tid: o.tid, Name: name, Ino: ino})
	}
}

// lock acquires n's lock (a no-op under the big lock) and reports it.
// Traced operations additionally time the acquisition wait, stamp the
// node for hold-time accounting (lockedNs is mutex-synchronized: only
// the holder touches it), and emit a lock-coupling event — the runtime
// trace of the LockPath ghost state the monitor maintains.
func (o *op) lock(branch core.Branch, name string, n *node) {
	if !o.fs.bigLock {
		o.fire(HookLockAttempt, name, n.ino)
		o.lockRaw(n)
	}
	o.s.Lock(branch, name, n.ino)
	o.fire(HookLocked, name, n.ino)
}

// lockRaw is the concrete half of lock — the mutex acquisition with its
// traced wait accounting, without the monitor record or hook firings.
// The prefix-cache shortcut uses it directly: the monitor learns of the
// acquisition through ShortcutEntry, not Session.Lock.
func (o *op) lockRaw(n *node) {
	if p := o.fs.obs; p != nil && o.traced {
		start := nowNano()
		n.lk.Lock(o.tid)
		now := nowNano()
		n.lockedNs = now
		p.lockWait.Observe(o.tid, now-start)
		p.rec.EmitAt(now, o.tid, obs.EvLockAcq, uint8(o.kind), uint64(n.ino), uint64(now-start))
	} else {
		n.lk.Lock(o.tid)
	}
}

func (o *op) unlock(n *node) {
	if !o.fs.bigLock {
		o.unlockRaw(n)
		o.fire(HookUnlocked, "", n.ino)
	}
	o.s.Unlock(n.ino)
}

// unlockRaw is the concrete half of unlock (traced hold accounting plus
// the mutex release), for acquisitions the monitor never recorded.
func (o *op) unlockRaw(n *node) {
	if p := o.fs.obs; p != nil && o.traced {
		now := nowNano()
		if n.lockedNs != 0 {
			p.lockHold.Observe(o.tid, now-n.lockedNs)
			n.lockedNs = 0
		}
		p.rec.EmitAt(now, o.tid, obs.EvLockRel, uint8(o.kind), uint64(n.ino), 0)
	}
	n.lk.Unlock(o.tid)
}

// lp fires the operation's fixed linearization point.
func (o *op) lp() {
	o.fire(HookBeforeLP, "", 0)
	o.s.LP()
	o.fire(HookAfterLP, "", 0)
}

// renameLP fires rename's helper linearization point.
func (o *op) renameLP() {
	o.fire(HookBeforeLP, "", 0)
	o.s.RenameLP()
	o.fire(HookAfterLP, "", 0)
}

// walk traverses parts starting from locked cur with lock coupling. keep,
// when non-nil, is a node whose lock must survive the walk (rename's
// common ancestor): it is never released even when the walk moves past
// it. extra, when non-nil, is one more held node (rename's source parent
// during the destination walk). On success the final node is locked (plus
// keep and extra); on error the operation is linearized at the failure
// point and every held lock — the current node, keep, and extra — is
// released.
func (o *op) walk(branch core.Branch, cur *node, parts []string, keep, extra *node) (*node, error) {
	for _, name := range parts {
		// Cancellation is polled before each coupling step: the op holds
		// exactly cur (plus keep/extra), so an abort here releases them
		// and unwinds without a linearization point — the monitor's
		// TryAbort has already ruled out that a helper committed us.
		if err := o.cancelled(); err != nil {
			o.unlockSet(cur, keep, extra)
			return nil, err
		}
		prev := cur
		next, err := o.stepKeeping(branch, cur, name, keep)
		if err != nil {
			o.lp()
			o.unlockSet(prev, keep, extra)
			return nil, err
		}
		if o.chainRec {
			// next is locked here, so its generation is stable and even: a
			// detacher bumps gen only while holding the detached node's lock.
			o.chainN = append(o.chainN, next)
			o.chainG = append(o.chainG, next.gen.Load())
		}
		cur = next
	}
	return cur, nil
}

// stepKeeping moves the traversal from locked cur to its child name,
// following the coupling discipline (acquire child, then release cur) or,
// under WithUnsafeTraversal, the Figure-8 variant (release cur, then
// acquire child — opening the bypass window). keep is never released. On
// failure cur remains locked; the caller owns the LP placement.
func (o *op) stepKeeping(branch core.Branch, cur *node, name string, keep *node) (*node, error) {
	if cur.kind != spec.KindDir {
		return nil, fserr.ErrNotDir
	}
	child, ok := cur.dir.Lookup(name)
	if !ok {
		return nil, fserr.ErrNotExist
	}
	if o.fs.unsafe && cur != keep {
		o.unlock(cur)
		o.fire(HookUnsafeWindow, name, child.ino)
		o.lock(branch, name, child)
		return child, nil
	}
	o.lock(branch, name, child)
	if cur != keep {
		o.unlock(cur)
		o.fire(HookStepped, name, child.ino)
	}
	return child, nil
}

// traverse locks the root and walks parts; on success the final node is
// locked. Under WithPrefixCache it first tries to enter at the deepest
// cached ancestor of parts (pcache.go) and couples from there.
func (o *op) traverse(branch core.Branch, parts []string) (*node, error) {
	if err := o.cancelled(); err != nil {
		return nil, err
	}
	if o.fs.prefix {
		return o.traversePrefix(branch, parts)
	}
	o.lock(branch, "", o.fs.root)
	return o.walk(branch, o.fs.root, parts, nil, nil)
}

// detachBegin/detachEnd bracket the namespace removal of n — unlink,
// rmdir, rename's source, rename's overwritten victim — with n's detach
// generation, seqlock-style (odd while the removal is in flight). Called
// inside the operation's committing critical section while holding n's
// lock, which is what lets prefix validators trust an even, unchanged
// generation. No-ops without WithPrefixCache: there are no validators.
func (o *op) detachBegin(n *node) {
	if o.fs.prefix {
		o.fire(HookGenStamp, "", n.ino)
		n.gen.Add(1)
	}
}

func (o *op) detachEnd(n *node) {
	if o.fs.prefix {
		n.gen.Add(1)
	}
}
