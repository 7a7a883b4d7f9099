// Package atomfs is the public API of the AtomFS reproduction: the
// fine-grained, lock-coupling, linearizable, in-memory concurrent file
// system of "Using Concurrent Relational Logic with Helpers for Verifying
// the AtomFS File System" (SOSP 2019), together with the CRL-H runtime
// verification framework, the baseline file systems used by the paper's
// evaluation, a VFS layer providing file descriptors, and a FUSE-like
// network dispatch layer.
//
// # Quick start
//
//	fs := atomfs.New()
//	_ = fs.Mkdir(ctx, "/docs")
//	_, _ = fs.Write(ctx, "/docs/hello", 0, []byte("hi"))
//
// # Verified runs
//
// Attach a CRL-H monitor to check linearizability, the helper mechanism,
// and all Table-1 invariants at runtime:
//
//	mon := atomfs.NewMonitor(atomfs.MonitorConfig{CheckGoodAFS: true})
//	fs := atomfs.New(atomfs.WithMonitor(mon))
//	// ... concurrent operations ...
//	if err := mon.Quiesce(); err != nil { ... }
//	for _, v := range mon.Violations() { ... }
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper's reproduced figures and tables.
package atomfs

import (
	"net"

	"repro/internal/atomfs"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/fuse"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/memfs"
	"repro/internal/mount"
	"repro/internal/obs"
	"repro/internal/retryfs"
	"repro/internal/slowfs"
	"repro/internal/spec"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// FS is the path-based POSIX-like interface implemented by every file
// system in this module.
type FS = fsapi.FS

// Info is a stat result.
type Info = fsapi.Info

// ReadAll reads size bytes at off into a freshly allocated buffer — the
// convenience form of FS.Read for callers that do not manage buffers.
var ReadAll = fsapi.ReadAll

// Kind distinguishes files from directories.
type Kind = spec.Kind

// Inode kinds.
const (
	KindFile = spec.KindFile
	KindDir  = spec.KindDir
)

// Option configures New.
type Option = atomfs.Option

// WithMonitor attaches a CRL-H monitor to the file system.
func WithMonitor(m *Monitor) Option { return atomfs.WithMonitor(m) }

// WithBlocks sizes the ramdisk in 4 KiB blocks.
func WithBlocks(n int) Option { return atomfs.WithBlocks(n) }

// WithFastPath enables the lockless read fast path: Stat, Read, and
// Readdir attempt a seqlock-validated no-lock traversal and fall back to
// lock coupling on conflict (see DESIGN.md §7).
func WithFastPath() Option { return atomfs.WithFastPath() }

// WithPrefixCache enables the write-path prefix cache: mutations start
// lock coupling at the deepest cached ancestor whose stamped detach
// generations validate under its lock, falling back to the root walk on
// any mismatch (see DESIGN.md §11).
func WithPrefixCache() Option { return atomfs.WithPrefixCache() }

// WithJournal attaches a durable write-ahead operation journal: the
// monitor appends every mutating Aop at its LP commit point, operations
// block on group-commit durability before returning, and wal.Recover
// replays the committed prefix after a crash (see DESIGN.md §14).
// Requires WithMonitor.
func WithJournal(l *wal.Log) Option { return atomfs.WithJournal(l) }

// Registry is a lock-free metrics registry plus flight recorder; see
// DESIGN.md §8 and the internal/obs package documentation.
type Registry = obs.Registry

// NewObsRegistry creates an empty metrics registry with a flight
// recorder, for use with WithObs and Monitor's MonitorConfig.Obs.
func NewObsRegistry() *Registry { return obs.NewRegistry() }

// WithObs instruments the file system into reg: per-op counters and
// latency histograms, lock wait/hold times, fast-path outcome counters,
// and sampled flight-recorder events (see DESIGN.md §8).
func WithObs(reg *Registry) Option { return atomfs.WithObs(reg) }

// HookEvent describes an instrumentation-point firing inside AtomFS;
// HookFunc receives them on the operation's goroutine, so blocking in a
// hook pauses the operation — the mechanism behind deterministic
// interleaving demonstrations.
type (
	HookEvent = atomfs.HookEvent
	HookFunc  = atomfs.HookFunc
	HookPoint = atomfs.HookPoint
)

// Hook points.
const (
	HookLocked   = atomfs.HookLocked
	HookBeforeLP = atomfs.HookBeforeLP
	HookAfterLP  = atomfs.HookAfterLP
	HookStepped  = atomfs.HookStepped
)

// WithHook installs an instrumentation hook on AtomFS.
func WithHook(h HookFunc) Option { return atomfs.WithHook(h) }

// Op identifies a file system operation in hook events and histories.
type Op = spec.Op

// Operations.
const (
	OpMknod    = spec.OpMknod
	OpMkdir    = spec.OpMkdir
	OpRmdir    = spec.OpRmdir
	OpUnlink   = spec.OpUnlink
	OpRename   = spec.OpRename
	OpStat     = spec.OpStat
	OpRead     = spec.OpRead
	OpWrite    = spec.OpWrite
	OpTruncate = spec.OpTruncate
	OpReaddir  = spec.OpReaddir
)

// New creates an AtomFS instance: per-inode locks, lock-coupling
// traversal, linearizable operations.
func New(opts ...Option) *atomfs.FS { return atomfs.New(opts...) }

// NewBigLock creates the coarse-grained AtomFS-biglock baseline (§7.3).
func NewBigLock() *atomfs.FS { return atomfs.New(atomfs.WithBigLock()) }

// NewRetryFS creates the Linux-VFS-style traversal-retry baseline (§5.1).
func NewRetryFS() *retryfs.FS { return retryfs.New() }

// NewMemFS creates the global-RWMutex tmpfs stand-in.
func NewMemFS() *memfs.FS { return memfs.New() }

// NewSlowFS wraps a file system with the DFSCQ-overhead model used by the
// Figure-10 comparison.
func NewSlowFS(inner FS) FS { return slowfs.New(inner) }

// Monitor is the CRL-H runtime verifier: the abstract specification, the
// helper mechanism (ghost state, linearize-before relations, linothers),
// and the Table-1 invariants, all checked on live executions.
type Monitor = core.Monitor

// MonitorConfig configures a Monitor.
type MonitorConfig = core.Config

// Violation reports a broken invariant or refinement obligation.
type Violation = core.Violation

// Monitor modes.
const (
	// ModeHelpers enables the helper mechanism (the paper's CRL-H).
	ModeHelpers = core.ModeHelpers
	// ModeFixedLP disables helping; Figure 1 shows why this is too weak.
	ModeFixedLP = core.ModeFixedLP
)

// NewMonitor creates a CRL-H monitor.
func NewMonitor(cfg MonitorConfig) *Monitor { return core.NewMonitor(cfg) }

// Recorder captures concurrent histories for offline checking.
type Recorder = history.Recorder

// NewRecorder creates an empty history recorder.
func NewRecorder() *Recorder { return history.NewRecorder() }

// CheckLinearizable runs the offline linearizability checker over a
// recorded history, starting from an empty file system when init is nil.
func CheckLinearizable(init *spec.AFS, events []history.Event) (lincheck.Result, error) {
	return lincheck.Check(init, events)
}

// VFS provides file descriptors over any FS via the FD->path design of
// §5.4, including read/write-after-unlink semantics.
type VFS = vfs.VFS

// NewVFS wraps fs with a descriptor table.
func NewVFS(fs FS) *VFS { return vfs.New(fs) }

// Namespace is a sharded namespace: independent volumes stitched behind
// a longest-prefix mount table, with cross-volume rename running as the
// two-phase helped protocol between atomfs volumes (DESIGN.md §13).
type Namespace = mount.NS

// NewNamespace creates a namespace whose root is served by root. Graft
// further volumes with its Mount method before serving operations:
//
//	ns := atomfs.NewNamespace(atomfs.New())
//	_ = ns.Mount(ctx, "/vol1", atomfs.New())
func NewNamespace(root FS) *Namespace { return mount.New(root) }

// QuotaConfig is one tenant's admission budget on a Server: a token
// bucket (Rate per second, Burst capacity) plus a bound on how many of
// the tenant's requests may queue for a token at once.
type QuotaConfig = fuse.QuotaConfig

// Server dispatches the FUSE-like binary protocol to a file system, with
// optional per-tenant admission control (SetQuota) and instrumentation
// (SetObs).
type Server = fuse.Server

// NewServer creates a protocol server over fs. Use Serve for the common
// no-configuration case.
func NewServer(fs FS) *Server { return fuse.NewServer(fs) }

// Serve exposes fs over the FUSE-like binary protocol on lis, blocking
// until the listener closes.
func Serve(lis net.Listener, fs FS) error {
	return fuse.NewServer(fs).Serve(lis)
}

// Dial connects to a served file system; the client implements FS.
func Dial(addr string) (*fuse.Client, error) { return fuse.Dial(addr) }

// Mount returns an in-process client/server pair over a pipe — a
// zero-configuration "mount" for examples and tests. Close the returned
// cleanup when done.
func Mount(fs FS) (client FS, cleanup func()) {
	c, srv := fuse.Pipe(fs)
	return c, func() {
		c.Close()
		srv.Close()
	}
}
