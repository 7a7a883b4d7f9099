package atomfs

import (
	"context"
	"sync/atomic"

	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/spec"
)

// This file implements the paper's §5.4 "Discussion about support for
// FDs" — the future-work design the authors sketch for scalable
// descriptors: give each inode a reference count, let unlink/rename mark
// an open inode unlinked instead of freeing it, and reclaim its storage
// when the last reference drops. FD-based operations then address the
// pinned inode directly, locking only it; per the paper's analysis such
// operations "have no path inter-dependency on renames, and therefore do
// not need to be helped. They are linearized when they pass their LPs."
//
// The CRL-H monitor's specification is path-based, so RefFD operations
// run outside the verified envelope (as in the paper, which leaves
// FD-level verification to future work); tests pin this behaviour down
// with the conformance and stress suites instead.

// refState carries the reference-counting state attached to every node.
type refState struct {
	refs     atomic.Int64
	unlinked atomic.Bool
	freed    atomic.Bool
}

// RefFD is a reference-counted file descriptor: a direct, pinned handle
// to an inode that survives unlink and rename of any ancestor.
type RefFD struct {
	fs     *FS
	n      *node
	closed atomic.Bool
}

// OpenRef resolves path once (a linearizable, lock-coupled traversal) and
// pins the inode: its storage stays alive until Close, even if the file
// is unlinked or its ancestors are renamed.
func (fs *FS) OpenRef(ctx context.Context, path string) (*RefFD, error) {
	h, err := fs.OpenDirect(ctx, path)
	if err != nil {
		return nil, err
	}
	// Pin under the inode lock so the pin cannot race the node's unlink:
	// a del marks unlinked while holding this same lock.
	tid := fs.nextTid.Add(1) | 1<<33
	h.n.lk.Lock(tid)
	if h.n.ref.unlinked.Load() {
		h.n.lk.Unlock(tid)
		return nil, fserr.ErrNotExist
	}
	h.n.ref.refs.Add(1)
	h.n.lk.Unlock(tid)
	return &RefFD{fs: fs, n: h.n}, nil
}

// Close drops the pin; the last Close of an unlinked inode reclaims its
// storage.
func (fd *RefFD) Close() error {
	if fd.closed.Swap(true) {
		return fserr.ErrBadFD
	}
	fd.n.ref.refs.Add(-1)
	fd.fs.maybeFree(fd.n)
	return nil
}

// guard rejects use of a closed descriptor or a done context. RefFD
// operations lock a single pinned inode — there is no traversal to abort
// mid-way — so this single entry check is their whole cancellation story.
func (fd *RefFD) guard(ctx context.Context) (*node, error) {
	if fd.closed.Load() {
		return nil, fserr.ErrBadFD
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	default:
	}
	return fd.n, nil
}

// Stat reports the pinned inode's kind and size.
func (fd *RefFD) Stat(ctx context.Context) (fsapi.Info, error) {
	n, err := fd.guard(ctx)
	if err != nil {
		return fsapi.Info{}, err
	}
	tid := fd.fs.nextTid.Add(1) | 1<<33
	n.lk.Lock(tid)
	defer n.lk.Unlock(tid)
	if n.kind == spec.KindFile {
		return fsapi.Info{Kind: spec.KindFile, Size: n.data.Size()}, nil
	}
	return fsapi.Info{Kind: spec.KindDir, Size: int64(n.dir.Len())}, nil
}

// ReadAt reads from the pinned inode; it works after unlink (POSIX
// read-after-unlink without any VFS shadow copy).
func (fd *RefFD) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	n, err := fd.guard(ctx)
	if err != nil {
		return 0, err
	}
	if n.kind != spec.KindFile {
		return 0, fserr.ErrIsDir
	}
	tid := fd.fs.nextTid.Add(1) | 1<<33
	n.lk.Lock(tid)
	defer n.lk.Unlock(tid)
	return n.data.ReadAt(p, off)
}

// WriteAt writes to the pinned inode.
func (fd *RefFD) WriteAt(ctx context.Context, p []byte, off int64) (int, error) {
	n, err := fd.guard(ctx)
	if err != nil {
		return 0, err
	}
	if n.kind != spec.KindFile {
		return 0, fserr.ErrIsDir
	}
	tid := fd.fs.nextTid.Add(1) | 1<<33
	n.lk.Lock(tid)
	defer n.lk.Unlock(tid)
	return n.data.WriteAt(p, off, tid)
}

// Truncate resizes the pinned inode.
func (fd *RefFD) Truncate(ctx context.Context, size int64) error {
	n, err := fd.guard(ctx)
	if err != nil {
		return err
	}
	if n.kind != spec.KindFile {
		return fserr.ErrIsDir
	}
	tid := fd.fs.nextTid.Add(1) | 1<<33
	n.lk.Lock(tid)
	defer n.lk.Unlock(tid)
	return n.data.Truncate(size, tid)
}

// Readdir lists the pinned directory. Unlike Handle.Readdir this is safe
// with respect to reclamation (the pin keeps the dir alive), but like all
// FD-direct operations it is linearizable only at FD granularity.
func (fd *RefFD) Readdir(ctx context.Context) ([]string, error) {
	n, err := fd.guard(ctx)
	if err != nil {
		return nil, err
	}
	if n.kind != spec.KindDir {
		return nil, fserr.ErrNotDir
	}
	tid := fd.fs.nextTid.Add(1) | 1<<33
	n.lk.Lock(tid)
	defer n.lk.Unlock(tid)
	return n.dir.Names(), nil
}

// Unlinked reports whether the pinned inode has been removed from the
// tree (it remains usable through the descriptor until Close).
func (fd *RefFD) Unlinked() bool { return fd.n.ref.unlinked.Load() }

// maybeFree reclaims a node's storage once it is unlinked and unpinned:
// its data blocks go back to the ramdisk allocator and the inode leaves
// the registry. Pins only happen on reachable nodes and unlink happens
// under the node's lock, so refs cannot rise after unlinked is set; the
// CAS makes reclamation idempotent under concurrent Close calls.
func (fs *FS) maybeFree(n *node) {
	if !n.ref.unlinked.Load() || n.ref.refs.Load() != 0 ||
		!n.ref.freed.CompareAndSwap(false, true) {
		return
	}
	if n.data != nil {
		n.data.Release(uint64(n.ino))
	}
	fs.regMu.Lock()
	delete(fs.registry, n.ino)
	fs.regMu.Unlock()
}
