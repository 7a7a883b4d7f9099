// Cross-volume rename support (DESIGN.md §13): the concrete halves of
// the two-phase helped protocol whose ghost side lives in
// internal/core/cross.go. A namespace of several atomfs volumes
// (internal/mount) composes a rename that crosses volumes as
//
//	det, err := src.DetachPrepare(ctx, srcPath, rec)   // phase 1
//	cerr := dst.AttachCommit(ctx, dstPath, rec)        // phase 2
//	return det.Complete(cerr)
//
// DetachPrepare walks the source spine WITHOUT releasing any ancestor
// (unlike lock coupling), locks the victim, quiesces its whole subtree
// with raw locks, snapshots it into a self-contained payload, and
// publishes the prepared intent — applying NO concrete mutation. The
// held spine is load-bearing three ways: no rename can overtake an
// ancestor of the prepared walk (so the prepared descriptor can never
// enter a help set), no slow-path operation can observe the two-phase
// window (every coupled walk blocks at the root), and an abort needs no
// concrete rollback at all.
//
// AttachCommit is an ordinary coupled walk on the destination volume: it
// mirrors rename's destination-victim semantics, concretely builds the
// payload subtree with fresh inodes, inserts it, and fires HelpCommit —
// the composed operation's single commit point, which also externally
// linearizes the source's detach. Any destination failure fires
// CrossAbort with its error instead.
//
// Complete finishes the source: on commit it performs the concrete
// removal (generation bumps for every detached node, the top edge's
// delete, block reclamation for the whole subtree) and Ends with
// success; on abort it just unlocks and Ends with the destination's
// error — the source volume is bit-for-bit unchanged.
package atomfs

import (
	"context"

	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/spec"
)

// CrossVolume is the interface a volume offers to a mount table for
// two-phase cross-volume renames. *FS implements it; variants that do
// not (memfs, retryfs, ...) get a namespace-level copy+delete fallback
// instead.
type CrossVolume interface {
	fsapi.FS
	// DetachPrepare locks path's spine and subtree, snapshots the subtree
	// into rec's payload, and publishes the prepared intent. On error the
	// source operation has fully ended (nothing to complete).
	DetachPrepare(ctx context.Context, path string, rec *core.CrossRecord) (CrossDetach, error)
	// AttachCommit grafts rec's payload at path, committing the record on
	// success and aborting it with the returned error on failure.
	AttachCommit(ctx context.Context, path string, rec *core.CrossRecord) error
}

// CrossDetach is a prepared source half awaiting the destination's
// outcome.
type CrossDetach interface {
	// Payload returns the snapshotted subtree.
	Payload() *spec.SubTree
	// Complete finishes the source half: commitErr nil applies the
	// concrete removal and returns nil; non-nil unwinds without any
	// mutation and returns commitErr.
	Complete(commitErr error) error
}

var _ CrossVolume = (*FS)(nil)

// Detach is a prepared cross-volume source operation: the op holds the
// full lock spine root..parent, the victim's lock, and raw locks on
// every node below the victim.
type Detach struct {
	o       *op
	rec     *core.CrossRecord
	payload *spec.SubTree
	spine   []*node // root..parent (monitor-recorded locks)
	parent  *node
	victim  *node   // monitor-recorded lock
	subtree []*node // strict descendants of victim, raw-locked, DFS order
	name    string
}

// walkSpine locks the root and every component of parts in order,
// releasing NOTHING: the spine-holding walk of a cross-volume source.
// On success it returns root..target all locked; on error the operation
// is linearized at the failure point and every acquired lock released.
func (o *op) walkSpine(parts []string) ([]*node, error) {
	if err := o.cancelled(); err != nil {
		return nil, err
	}
	o.lock(core.BranchBoth, "", o.fs.root)
	spine := []*node{o.fs.root}
	unwind := func() {
		for i := len(spine) - 1; i >= 0; i-- {
			o.unlock(spine[i])
		}
	}
	for _, name := range parts {
		if err := o.cancelled(); err != nil {
			unwind()
			return nil, err
		}
		cur := spine[len(spine)-1]
		if cur.kind != spec.KindDir {
			o.lp()
			unwind()
			return nil, fserr.ErrNotDir
		}
		child, ok := cur.dir.Lookup(name)
		if !ok {
			o.lp()
			unwind()
			return nil, fserr.ErrNotExist
		}
		o.lock(core.BranchBoth, name, child)
		spine = append(spine, child)
	}
	return spine, nil
}

// DetachPrepare is phase 1 of a cross-volume rename on the source
// volume. See the package comment at the top of this file.
func (fs *FS) DetachPrepare(ctx context.Context, path string, rec *core.CrossRecord) (CrossDetach, error) {
	o := fs.begin(ctx, spec.OpDetach, spec.Args{Path: path})
	dirParts, name, err := o.splitDir(path)
	if err != nil {
		return nil, o.end(spec.ErrRet(err)).Err
	}
	spine, err := o.walkSpine(dirParts)
	if err != nil {
		return nil, o.end(spec.ErrRet(err)).Err
	}
	unwind := func() {
		for i := len(spine) - 1; i >= 0; i-- {
			o.unlock(spine[i])
		}
	}
	parent := spine[len(spine)-1]
	if parent.kind != spec.KindDir {
		o.lp()
		unwind()
		return nil, o.end(spec.ErrRet(fserr.ErrNotDir)).Err
	}
	victim, ok := parent.dir.Lookup(name)
	if !ok {
		o.lp()
		unwind()
		return nil, o.end(spec.ErrRet(fserr.ErrNotExist)).Err
	}
	if err := o.cancelled(); err != nil {
		unwind()
		return nil, o.end(spec.ErrRet(err)).Err
	}
	o.lock(core.BranchBoth, name, victim)

	// Quiesce the subtree: raw-lock every strict descendant top-down (the
	// monitor sees only the spine + victim; these are not path-coupling
	// locks, they wait out in-flight operations below the victim). All
	// writers acquire ancestor-before-descendant, and a mid-flight rename
	// holds its LCA until both parents are locked, so a second top-down
	// locker cannot complete a cycle with it (see DESIGN.md §13).
	var subtree []*node
	var dfs func(n *node)
	dfs = func(n *node) {
		if n.kind != spec.KindDir {
			return
		}
		for _, name := range n.dir.Names() {
			child, ok := n.dir.Lookup(name)
			if !ok {
				continue // unreachable: n is locked
			}
			// Hook brackets around the raw acquisition so serialized
			// schedulers (schedfuzz) can predict and track the wait.
			o.fire(HookLockAttempt, name, child.ino)
			o.lockRaw(child)
			o.fire(HookLocked, name, child.ino)
			subtree = append(subtree, child)
			dfs(child)
		}
	}
	dfs(victim)

	// Snapshot the quiesced subtree into a self-contained payload.
	var snap func(n *node) *spec.SubTree
	snap = func(n *node) *spec.SubTree {
		t := &spec.SubTree{Kind: n.kind}
		if n.kind == spec.KindFile {
			t.Data = n.data.Bytes()
			return t
		}
		t.Children = map[string]*spec.SubTree{}
		n.dir.Range(func(name string, child *node) bool {
			t.Children[name] = snap(child)
			return true
		})
		return t
	}
	payload := snap(victim)

	o.s.CrossPrepare(rec, payload)
	return &Detach{
		o: o, rec: rec, payload: payload,
		spine: spine, parent: parent, victim: victim,
		subtree: subtree, name: name,
	}, nil
}

// Payload returns the snapshotted subtree.
func (d *Detach) Payload() *spec.SubTree { return d.payload }

// Complete finishes the source half after the destination's outcome.
func (d *Detach) Complete(commitErr error) error {
	o := d.o
	unwindSubtree := func() {
		for i := len(d.subtree) - 1; i >= 0; i-- {
			o.unlockRaw(d.subtree[i])
			o.fire(HookUnlocked, "", d.subtree[i].ino)
		}
	}
	unwindSpine := func() {
		o.unlock(d.victim)
		for i := len(d.spine) - 1; i >= 0; i-- {
			o.unlock(d.spine[i])
		}
	}
	if commitErr != nil {
		// Abort: the ghost side was resolved by CrossAbort; concretely
		// nothing ever changed, so release everything and report the
		// destination's error (which End matches against the linearized
		// failure result).
		unwindSubtree()
		unwindSpine()
		return o.end(spec.ErrRet(commitErr)).Err
	}
	// Commit: the detach's external LP already fired inside HelpCommit,
	// so this is the helped-operation completion path — apply the
	// concrete removal the abstract state already reflects, then End
	// (which retires the Helplist entry). Every detached node's
	// generation is bumped: cached prefixes running through ANY node of
	// the subtree must go stale, not only those through the victim.
	o.mutBegin()
	o.detachBegin(d.victim)
	for _, n := range d.subtree {
		o.detachBegin(n)
	}
	d.parent.dir.Delete(d.name)
	d.victim.ref.unlinked.Store(true)
	for _, n := range d.subtree {
		n.ref.unlinked.Store(true)
	}
	for i := len(d.subtree) - 1; i >= 0; i-- {
		o.detachEnd(d.subtree[i])
	}
	o.detachEnd(d.victim)
	o.mutEnd()
	unwindSubtree()
	unwindSpine()
	// Reclaim bottom-up so directories release after their contents.
	fs := o.fs
	for i := len(d.subtree) - 1; i >= 0; i-- {
		fs.maybeFree(d.subtree[i])
	}
	fs.maybeFree(d.victim)
	return o.end(spec.OkRet()).Err
}

// AttachCommit is phase 2 of a cross-volume rename on the destination
// volume. It is an ordinary coupled walk — unlike the source it holds
// only its parent (plus a victim), exactly like mknod/rename-destination
// — whose LP is the composed operation's HelpCommit. On any failure the
// record is aborted with the same error this method returns.
func (fs *FS) AttachCommit(ctx context.Context, path string, rec *core.CrossRecord) error {
	sub := rec.Sub()
	o := fs.begin(ctx, spec.OpAttach, spec.Args{Path: path, Sub: sub})
	// fail runs after o.end has recycled o, so it must not read o: take
	// the session now.
	s := o.s
	fail := func(err error) error {
		s.CrossAbort(rec, err)
		return err
	}
	if sub == nil {
		return fail(o.end(spec.ErrRet(fserr.ErrInvalid)).Err)
	}
	dirParts, name, err := o.splitDir(path)
	if err != nil {
		return fail(o.end(spec.ErrRet(err)).Err)
	}
	parent, err := o.traverse(core.BranchBoth, dirParts)
	if err != nil {
		return fail(o.end(spec.ErrRet(err)).Err)
	}
	if parent.kind != spec.KindDir {
		o.lp()
		o.unlock(parent)
		return fail(o.end(spec.ErrRet(fserr.ErrNotDir)).Err)
	}
	var victim *node
	if v, exists := parent.dir.Lookup(name); exists {
		victim = v
		if err := o.cancelled(); err != nil {
			o.unlock(parent)
			return fail(o.end(spec.ErrRet(err)).Err)
		}
		o.lock(core.BranchBoth, name, victim)
		// Rename's destination-victim semantics: a directory payload may
		// replace only an empty directory; a file payload may not replace
		// a directory.
		var verr error
		if sub.Kind == spec.KindDir {
			if victim.kind != spec.KindDir {
				verr = fserr.ErrNotDir
			} else if victim.dir.Len() != 0 {
				verr = fserr.ErrNotEmpty
			}
		} else if victim.kind == spec.KindDir {
			verr = fserr.ErrIsDir
		}
		if verr != nil {
			o.lp()
			o.unlockSet(victim, parent)
			return fail(o.end(spec.ErrRet(verr)).Err)
		}
	}

	// Concretely build the payload with fresh inodes. A mid-build write
	// failure (ramdisk exhausted) unwinds the partial build and aborts;
	// like Write's ENOSPC path this is outside the refinement argument
	// (the abstract state has no block budget).
	var created []*node
	var build func(t *spec.SubTree) (*node, error)
	build = func(t *spec.SubTree) (*node, error) {
		n := fs.newNode(t.Kind)
		created = append(created, n)
		if t.Kind == spec.KindFile {
			if len(t.Data) > 0 {
				if _, werr := n.data.WriteAt(t.Data, 0, o.tid); werr != nil {
					return nil, werr
				}
			}
			return n, nil
		}
		for name, c := range t.Children {
			child, berr := build(c)
			if berr != nil {
				return nil, berr
			}
			n.dir.Insert(name, child)
		}
		return n, nil
	}
	top, berr := build(sub)
	if berr != nil {
		for _, n := range created {
			n.ref.unlinked.Store(true)
			fs.maybeFree(n)
		}
		o.unlockSet(victim, parent)
		return fail(o.end(spec.ErrRet(berr)).Err)
	}

	o.mutBegin()
	if victim != nil {
		o.detachBegin(victim)
		parent.dir.Delete(name)
		victim.ref.unlinked.Store(true)
	}
	parent.dir.Insert(name, top)
	o.fire(HookBeforeLP, "", 0)
	o.s.HelpCommit(rec) // ▶ LP: ATTACH; then the source's external DETACH ◀
	o.fire(HookAfterLP, "", 0)
	if victim != nil {
		o.detachEnd(victim)
	}
	o.mutEnd()
	o.unlockSet(victim, parent)
	if victim != nil {
		fs.maybeFree(victim)
	}
	return o.end(spec.OkRet()).Err
}
