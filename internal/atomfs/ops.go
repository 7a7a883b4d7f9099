package atomfs

import (
	"context"

	"repro/internal/core"
	"repro/internal/file"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/pathname"
	"repro/internal/spec"
)

// The operations below mirror Figure 2 of the paper (with full error
// handling) and place every linearization point inside the critical
// section, exactly where the proofs require it:
//
//	ins: insert(parent, name, node); ▶ LP ◀; unlock
//	del: delete(parent, name);       ▶ LP ◀; unlock; free
//	rename: delete;delete;insert;    ▶ LP: linothers; RENAME ◀; unlock; free
//
// Failure paths linearize at the failing check, while the relevant lock is
// still held, so the abstract state agrees with what the concrete
// operation observed. Error precedence matches spec.Apply exactly; the
// differential tests in conform enforce this.

// unlockSet releases a set of nodes, ignoring nils and duplicates. The
// set is tiny (at most four nodes on rename's unlock path), so a linear
// scan beats a map allocation on this hot path.
func (o *op) unlockSet(nodes ...*node) {
	for i, n := range nodes {
		if n == nil {
			continue
		}
		dup := false
		for _, m := range nodes[:i] {
			if m == n {
				dup = true
				break
			}
		}
		if !dup {
			o.unlock(n)
		}
	}
}

// Mknod creates an empty file.
func (fs *FS) Mknod(ctx context.Context, path string) error {
	return fs.ins(ctx, spec.OpMknod, spec.KindFile, path)
}

// Mkdir creates an empty directory.
func (fs *FS) Mkdir(ctx context.Context, path string) error {
	return fs.ins(ctx, spec.OpMkdir, spec.KindDir, path)
}

func (fs *FS) ins(ctx context.Context, opKind spec.Op, kind spec.Kind, path string) error {
	o := fs.begin(ctx, opKind, spec.Args{Path: path})
	dirParts, name, err := o.splitDir(path)
	if err != nil {
		return o.end(spec.ErrRet(err)).Err
	}
	parent, err := o.traverse(core.BranchBoth, dirParts)
	if err != nil {
		return o.end(spec.ErrRet(err)).Err
	}
	if parent.kind != spec.KindDir {
		o.lp()
		o.unlock(parent)
		return o.end(spec.ErrRet(fserr.ErrNotDir)).Err
	}
	if _, exists := parent.dir.Lookup(name); exists {
		o.lp()
		o.unlock(parent)
		return o.end(spec.ErrRet(fserr.ErrExist)).Err
	}
	child := fs.newNode(kind)
	o.mutBegin()
	parent.dir.Insert(name, child)
	o.lp() // ▶ LP: INS ◀
	o.mutEnd()
	o.unlock(parent)
	return o.end(spec.OkRet()).Err
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(ctx context.Context, path string) error {
	return fs.del(ctx, spec.OpRmdir, spec.KindDir, path)
}

// Unlink removes a file.
func (fs *FS) Unlink(ctx context.Context, path string) error {
	return fs.del(ctx, spec.OpUnlink, spec.KindFile, path)
}

func (fs *FS) del(ctx context.Context, opKind spec.Op, kind spec.Kind, path string) error {
	o := fs.begin(ctx, opKind, spec.Args{Path: path})
	dirParts, name, err := o.splitDir(path)
	if err != nil {
		return o.end(spec.ErrRet(err)).Err
	}
	parent, err := o.traverse(core.BranchBoth, dirParts)
	if err != nil {
		return o.end(spec.ErrRet(err)).Err
	}
	if parent.kind != spec.KindDir {
		o.lp()
		o.unlock(parent)
		return o.end(spec.ErrRet(fserr.ErrNotDir)).Err
	}
	child, ok := parent.dir.Lookup(name)
	if !ok {
		o.lp()
		o.unlock(parent)
		return o.end(spec.ErrRet(fserr.ErrNotExist)).Err
	}
	if err := o.cancelled(); err != nil {
		o.unlock(parent)
		return o.end(spec.ErrRet(err)).Err
	}
	o.lock(core.BranchBoth, name, child)
	if kind == spec.KindDir {
		if child.kind != spec.KindDir {
			o.lp()
			o.unlockSet(child, parent)
			return o.end(spec.ErrRet(fserr.ErrNotDir)).Err
		}
		if child.dir.Len() != 0 {
			o.lp()
			o.unlockSet(child, parent)
			return o.end(spec.ErrRet(fserr.ErrNotEmpty)).Err
		}
	} else if child.kind == spec.KindDir {
		o.lp()
		o.unlockSet(child, parent)
		return o.end(spec.ErrRet(fserr.ErrIsDir)).Err
	}
	o.mutBegin()
	o.detachBegin(child) // the removed child's prefixes go stale, not the parent's
	parent.dir.Delete(name)
	child.ref.unlinked.Store(true) // §5.4: open descriptors keep it alive
	o.lp()                         // ▶ LP: DEL ◀
	o.detachEnd(child)
	o.mutEnd()
	o.unlockSet(child, parent)
	fs.maybeFree(child)
	return o.end(spec.OkRet()).Err
}

// Stat reports an inode's kind and size.
func (fs *FS) Stat(ctx context.Context, path string) (fsapi.Info, error) {
	o := fs.beginRead(ctx, spec.OpStat, spec.Args{Path: path})
	parts, err := o.split(path)
	if err != nil {
		return fsapi.Info{}, o.end(spec.ErrRet(err)).Err
	}
	if fs.fastPath && o.fastAdmit() {
		// One up-front check covers the whole fast path: the lockless
		// walk takes no recorded locks, so an abort here unwinds nothing,
		// and a read-only session outside any critical section can never
		// be in a helper's help set (SrcPrefix needs a longer LockPath).
		if err := o.cancelled(); err != nil {
			return fsapi.Info{}, o.end(spec.ErrRet(err)).Err
		}
		if ret, ok := o.fastStat(parts); ok {
			o.fastHit()
			o.end(ret)
			return fsapi.Info{Kind: ret.Kind, Size: ret.Size}, ret.Err
		}
		o.fastFall()
	}
	n, err := o.traverse(core.BranchBoth, parts)
	if err != nil {
		return fsapi.Info{}, o.end(spec.ErrRet(err)).Err
	}
	ret := spec.Ret{Kind: n.kind}
	if n.kind == spec.KindFile {
		ret.Size = n.data.Size()
	} else {
		ret.Size = int64(n.dir.Len())
	}
	o.lp() // ▶ LP: STAT ◀
	o.unlock(n)
	o.end(ret)
	return fsapi.Info{Kind: ret.Kind, Size: ret.Size}, nil
}

// Read fills dst with file bytes starting at off and reports how many
// were read. The caller owns the buffer — the hot path allocates nothing.
func (fs *FS) Read(ctx context.Context, path string, off int64, dst []byte) (int, error) {
	o := fs.beginRead(ctx, spec.OpRead, spec.Args{Path: path, Off: off, Size: len(dst)})
	if off < 0 {
		return 0, o.end(spec.ErrRet(fserr.ErrInvalid)).Err
	}
	parts, err := o.split(path)
	if err != nil {
		return 0, o.end(spec.ErrRet(err)).Err
	}
	if fs.fastPath && o.fastAdmit() {
		// See Stat for why one up-front check suffices on the fast path.
		if err := o.cancelled(); err != nil {
			return 0, o.end(spec.ErrRet(err)).Err
		}
		if ret, ok := o.fastRead(parts, off, dst); ok {
			o.fastHit()
			o.end(ret)
			return ret.N, ret.Err
		}
		o.fastFall()
	}
	n, err := o.traverse(core.BranchBoth, parts)
	if err != nil {
		return 0, o.end(spec.ErrRet(err)).Err
	}
	if n.kind == spec.KindDir {
		o.lp()
		o.unlock(n)
		return 0, o.end(spec.ErrRet(fserr.ErrIsDir)).Err
	}
	rn, _ := n.data.ReadAt(dst, off)
	ret := spec.Ret{Data: dst[:rn:rn], N: rn}
	o.lp() // ▶ LP: READ ◀
	o.unlock(n)
	o.end(ret)
	return rn, nil
}

// Write stores data at off, growing the file as needed.
func (fs *FS) Write(ctx context.Context, path string, off int64, data []byte) (int, error) {
	o := fs.begin(ctx, spec.OpWrite, spec.Args{Path: path, Off: off, Data: data})
	if off < 0 {
		return 0, o.end(spec.ErrRet(fserr.ErrInvalid)).Err
	}
	if off+int64(len(data)) > file.MaxSize {
		return 0, o.end(spec.ErrRet(fserr.ErrNoSpace)).Err
	}
	parts, err := o.split(path)
	if err != nil {
		return 0, o.end(spec.ErrRet(err)).Err
	}
	n, err := o.traverse(core.BranchBoth, parts)
	if err != nil {
		return 0, o.end(spec.ErrRet(err)).Err
	}
	if n.kind == spec.KindDir {
		o.lp()
		o.unlock(n)
		return 0, o.end(spec.ErrRet(fserr.ErrIsDir)).Err
	}
	wn, werr := n.data.WriteAt(data, off, o.tid)
	var ret spec.Ret
	if werr != nil {
		ret = spec.ErrRet(werr) // ramdisk exhausted mid-write
	} else {
		ret = spec.Ret{N: wn}
	}
	o.lp() // ▶ LP: WRITE ◀
	o.unlock(n)
	o.end(ret)
	return wn, werr
}

// Truncate resizes a file.
func (fs *FS) Truncate(ctx context.Context, path string, size int64) error {
	o := fs.begin(ctx, spec.OpTruncate, spec.Args{Path: path, Off: size})
	if size < 0 || size > file.MaxSize {
		return o.end(spec.ErrRet(fserr.ErrInvalid)).Err
	}
	parts, err := o.split(path)
	if err != nil {
		return o.end(spec.ErrRet(err)).Err
	}
	n, err := o.traverse(core.BranchBoth, parts)
	if err != nil {
		return o.end(spec.ErrRet(err)).Err
	}
	if n.kind == spec.KindDir {
		o.lp()
		o.unlock(n)
		return o.end(spec.ErrRet(fserr.ErrIsDir)).Err
	}
	terr := n.data.Truncate(size, o.tid)
	var ret spec.Ret
	if terr != nil {
		ret = spec.ErrRet(terr)
	} else {
		ret = spec.OkRet()
	}
	o.lp() // ▶ LP: TRUNCATE ◀
	o.unlock(n)
	return o.end(ret).Err
}

// Readdir lists a directory's entry names in sorted order.
func (fs *FS) Readdir(ctx context.Context, path string) ([]string, error) {
	o := fs.beginRead(ctx, spec.OpReaddir, spec.Args{Path: path})
	parts, err := o.split(path)
	if err != nil {
		return nil, o.end(spec.ErrRet(err)).Err
	}
	if fs.fastPath && o.fastAdmit() {
		// See Stat for why one up-front check suffices on the fast path.
		if err := o.cancelled(); err != nil {
			return nil, o.end(spec.ErrRet(err)).Err
		}
		if ret, ok := o.fastReaddir(parts); ok {
			o.fastHit()
			o.end(ret)
			return ret.Names, ret.Err
		}
		o.fastFall()
	}
	n, err := o.traverse(core.BranchBoth, parts)
	if err != nil {
		return nil, o.end(spec.ErrRet(err)).Err
	}
	if n.kind != spec.KindDir {
		o.lp()
		o.unlock(n)
		return nil, o.end(spec.ErrRet(fserr.ErrNotDir)).Err
	}
	ret := spec.Ret{Names: n.dir.Names()}
	o.lp() // ▶ LP: READDIR ◀
	o.unlock(n)
	o.end(ret)
	return ret.Names, nil
}

// Rename moves src to dst with POSIX overwrite semantics. This is the
// paper's §5.2 protocol: hand-over-hand to the last common ancestor, which
// stays locked until both the source and destination directories are
// locked; then victim locks; then the three link mutations; then the
// helper linearization point.
func (fs *FS) Rename(ctx context.Context, src, dst string) error {
	o := fs.begin(ctx, spec.OpRename, spec.Args{Path: src, Path2: dst})
	sdirParts, sn, err := o.splitDir(src)
	if err != nil {
		return o.end(spec.ErrRet(err)).Err
	}
	ddirParts, dn, err := o.splitDir2(dst)
	if err != nil {
		return o.end(spec.ErrRet(err)).Err
	}

	// Hand-over-hand down the common prefix of the two parent paths.
	// Under WithPrefixCache the walk may enter at the deepest cached
	// ancestor of the LCA instead of the root.
	commonLen := pathname.CommonPrefixLen(sdirParts, ddirParts)
	var lca *node
	if fs.prefix {
		lca, err = o.traversePrefix(core.BranchBoth, sdirParts[:commonLen])
	} else {
		o.lock(core.BranchBoth, "", fs.root)
		lca, err = o.walk(core.BranchBoth, fs.root, sdirParts[:commonLen], nil, nil)
	}
	if err != nil {
		return o.end(spec.ErrRet(err)).Err
	}

	// Source branch; the LCA lock survives the walk.
	sdir := lca
	if len(sdirParts) > commonLen {
		sdir, err = o.walk(core.BranchSrc, lca, sdirParts[commonLen:], lca, nil)
		if err != nil {
			return o.end(spec.ErrRet(err)).Err
		}
	}
	if sdir.kind != spec.KindDir {
		o.lp()
		o.unlockSet(sdir, lca)
		return o.end(spec.ErrRet(fserr.ErrNotDir)).Err
	}
	snode, ok := sdir.dir.Lookup(sn)
	if !ok {
		o.lp()
		o.unlockSet(sdir, lca)
		return o.end(spec.ErrRet(fserr.ErrNotExist)).Err
	}
	if samePathSplit(sdirParts, sn, ddirParts, dn) {
		o.lp()
		o.unlockSet(sdir, lca)
		return o.end(spec.OkRet()).Err
	}
	if srcPrefixOfDst(sdirParts, sn, ddirParts, dn) {
		o.lp()
		o.unlockSet(sdir, lca)
		return o.end(spec.ErrRet(fserr.ErrInvalid)).Err
	}

	// Destination branch; both the LCA and sdir stay locked.
	ddir := lca
	if len(ddirParts) > commonLen {
		ddir, err = o.walk(core.BranchDst, lca, ddirParts[commonLen:], lca, sdir)
		if err != nil {
			return o.end(spec.ErrRet(err)).Err
		}
	}
	if ddir.kind != spec.KindDir {
		o.lp()
		o.unlockSet(ddir, sdir, lca)
		return o.end(spec.ErrRet(fserr.ErrNotDir)).Err
	}
	// Both parent directories are locked; the LCA lock may now be
	// released (§5.2 deadlock-freedom rule).
	if lca != sdir && lca != ddir {
		o.unlock(lca)
	}

	// Last poll before the point of no return: after this the rename
	// acquires its victim and source locks and runs straight through its
	// mutations to the helper LP.
	if err := o.cancelled(); err != nil {
		o.unlockSet(sdir, ddir)
		return o.end(spec.ErrRet(err)).Err
	}

	var dnode *node
	if d, exists := ddir.dir.Lookup(dn); exists {
		dnode = d
		// dnode == sdir happens when dst names the source's own parent
		// (rename(/a/b/s, /a/b)); it is already locked then.
		if dnode != sdir {
			o.lock(core.BranchDst, dn, dnode)
		}
		var verr error
		if snode.kind == spec.KindDir {
			if dnode.kind != spec.KindDir {
				verr = fserr.ErrNotDir
			} else if dnode.dir.Len() != 0 {
				verr = fserr.ErrNotEmpty
			}
		} else if dnode.kind == spec.KindDir {
			verr = fserr.ErrIsDir
		}
		if verr != nil {
			o.lp()
			o.unlockSet(dnode, sdir, ddir)
			return o.end(spec.ErrRet(verr)).Err
		}
	}
	o.lock(core.BranchSrc, sn, snode)

	o.mutBegin()
	// Both the moved source and an overwritten victim are detached from
	// their old edges: every cached prefix running through either goes
	// stale. The parents sdir/ddir keep resolving — their generations
	// stay put, which is the whole point of per-node invalidation.
	o.detachBegin(snode)
	if dnode != nil {
		if dnode != snode {
			o.detachBegin(dnode)
		}
		ddir.dir.Delete(dn)
		dnode.ref.unlinked.Store(true) // §5.4: open descriptors keep it alive
	}
	sdir.dir.Delete(sn)
	ddir.dir.Insert(dn, snode)
	o.renameLP() // ▶ LP: linothers(t); RENAME ◀
	if dnode != nil && dnode != snode {
		o.detachEnd(dnode)
	}
	o.detachEnd(snode)
	o.mutEnd()
	o.unlockSet(snode, dnode, sdir, ddir)
	if dnode != nil && dnode != sdir {
		fs.maybeFree(dnode)
	}
	return o.end(spec.OkRet()).Err
}

// samePathSplit reports whether the paths (adir, an) and (bdir, bn) —
// each a parent-component slice plus final name — are identical. Working
// on the split form avoids materializing the joined part slices on
// rename's hot path.
func samePathSplit(adir []string, an string, bdir []string, bn string) bool {
	if len(adir) != len(bdir) || an != bn {
		return false
	}
	for i := range adir {
		if adir[i] != bdir[i] {
			return false
		}
	}
	return true
}

// srcPrefixOfDst reports whether src = sdir+[sn] is a (non-strict) prefix
// of dst = ddir+[dn]: rename's "is the destination inside the source
// subtree?" check, again without materializing the joined slices.
func srcPrefixOfDst(sdir []string, sn string, ddir []string, dn string) bool {
	if len(sdir)+1 > len(ddir)+1 {
		return false
	}
	for i := range sdir {
		if sdir[i] != dstAt(ddir, dn, i) {
			return false
		}
	}
	return sn == dstAt(ddir, dn, len(sdir))
}

// dstAt indexes the virtual slice ddir+[dn].
func dstAt(ddir []string, dn string, i int) string {
	if i < len(ddir) {
		return ddir[i]
	}
	return dn
}
