package spec

import (
	"repro/internal/fserr"
	"repro/internal/pathname"
)

// MaxFileSize caps abstract file contents, mirroring the concrete storage
// substrate's fixed-size block-index array (internal/file.MaxSize). The two
// constants are asserted equal by a test.
const MaxFileSize = 16 << 20

// Apply executes op atomically on the state, mutating it in place. It
// returns the client-visible result and the list of effects the transition
// applied, in application order; the effects feed the §4.4 roll-back
// mechanism when the operation was executed by a helper.
//
// Apply is total: invalid arguments yield an error result and leave the
// state unchanged.
func (fs *AFS) Apply(op Op, args Args) (Ret, []Effect) {
	switch op {
	case OpMknod:
		return fs.ins(args.Path, KindFile)
	case OpMkdir:
		return fs.ins(args.Path, KindDir)
	case OpRmdir:
		return fs.del(args.Path, KindDir)
	case OpUnlink:
		return fs.del(args.Path, KindFile)
	case OpRename:
		return fs.rename(args.Path, args.Path2)
	case OpStat:
		return fs.stat(args.Path)
	case OpRead:
		return fs.read(args.Path, args.Off, args.Size)
	case OpWrite:
		return fs.write(args.Path, args.Off, args.Data)
	case OpTruncate:
		return fs.truncate(args.Path, args.Off)
	case OpReaddir:
		return fs.readdir(args.Path)
	case OpDetach:
		return fs.detach(args.Path)
	case OpAttach:
		return fs.attach(args.Path, args.Sub)
	default:
		return ErrRet(fserr.ErrInvalid), nil
	}
}

// ins implements MknodSpec and MkdirSpec (the paper's merged "ins").
func (fs *AFS) ins(path string, kind Kind) (Ret, []Effect) {
	dirParts, name, err := pathname.SplitDir(path)
	if err != nil {
		return ErrRet(err), nil
	}
	parent, err := fs.Resolve(dirParts)
	if err != nil {
		return ErrRet(err), nil
	}
	pn := fs.Imap[parent]
	if pn.Kind != KindDir {
		return ErrRet(fserr.ErrNotDir), nil
	}
	if _, exists := pn.Links[name]; exists {
		return ErrRet(fserr.ErrExist), nil
	}
	child := fs.alloc(kind)
	fs.own(parent, pn).Links[name] = child
	return OkRet(), []Effect{
		{Kind: EffCreat, Ino: child},
		{Kind: EffIns, Parent: parent, Name: name, Ino: child},
	}
}

// del implements RmdirSpec and UnlinkSpec (the paper's merged "del").
func (fs *AFS) del(path string, kind Kind) (Ret, []Effect) {
	dirParts, name, err := pathname.SplitDir(path)
	if err != nil {
		return ErrRet(err), nil
	}
	parent, err := fs.Resolve(dirParts)
	if err != nil {
		return ErrRet(err), nil
	}
	pn := fs.Imap[parent]
	if pn.Kind != KindDir {
		return ErrRet(fserr.ErrNotDir), nil
	}
	child, ok := pn.Links[name]
	if !ok {
		return ErrRet(fserr.ErrNotExist), nil
	}
	cn := fs.Imap[child]
	if kind == KindDir {
		if cn.Kind != KindDir {
			return ErrRet(fserr.ErrNotDir), nil
		}
		if len(cn.Links) != 0 {
			return ErrRet(fserr.ErrNotEmpty), nil
		}
	} else if cn.Kind == KindDir {
		return ErrRet(fserr.ErrIsDir), nil
	}
	delete(fs.own(parent, pn).Links, name)
	delete(fs.Imap, child)
	return OkRet(), []Effect{
		{Kind: EffDel, Parent: parent, Name: name, Ino: child},
		{Kind: EffFree, Ino: child, Node: cn},
	}
}

// rename implements RenameSpec with POSIX overwrite semantics. The check
// order defines the error precedence every concrete implementation must
// reproduce: source resolution, subtree check, destination resolution,
// destination type checks.
func (fs *AFS) rename(src, dst string) (Ret, []Effect) {
	sdirParts, sn, err := pathname.SplitDir(src)
	if err != nil {
		return ErrRet(err), nil
	}
	ddirParts, dn, err := pathname.SplitDir(dst)
	if err != nil {
		return ErrRet(err), nil
	}
	sdir, err := fs.Resolve(sdirParts)
	if err != nil {
		return ErrRet(err), nil
	}
	sdirNode := fs.Imap[sdir]
	if sdirNode.Kind != KindDir {
		return ErrRet(fserr.ErrNotDir), nil
	}
	snode, ok := sdirNode.Links[sn]
	if !ok {
		return ErrRet(fserr.ErrNotExist), nil
	}
	srcParts := append(append([]string(nil), sdirParts...), sn)
	dstParts := append(append([]string(nil), ddirParts...), dn)
	if samePath(srcParts, dstParts) {
		return OkRet(), nil
	}
	if pathname.IsPrefix(srcParts, dstParts) {
		// Moving a directory into its own subtree.
		return ErrRet(fserr.ErrInvalid), nil
	}
	ddir, err := fs.Resolve(ddirParts)
	if err != nil {
		return ErrRet(err), nil
	}
	ddirNode := fs.Imap[ddir]
	if ddirNode.Kind != KindDir {
		return ErrRet(fserr.ErrNotDir), nil
	}
	var effects []Effect
	snodeNode := fs.Imap[snode]
	if dnode, exists := ddirNode.Links[dn]; exists {
		dnodeNode := fs.Imap[dnode]
		if snodeNode.Kind == KindDir {
			if dnodeNode.Kind != KindDir {
				return ErrRet(fserr.ErrNotDir), nil
			}
			if len(dnodeNode.Links) != 0 {
				return ErrRet(fserr.ErrNotEmpty), nil
			}
		} else if dnodeNode.Kind == KindDir {
			return ErrRet(fserr.ErrIsDir), nil
		}
		ddirNode = fs.own(ddir, ddirNode)
		delete(ddirNode.Links, dn)
		delete(fs.Imap, dnode)
		effects = append(effects,
			Effect{Kind: EffDel, Parent: ddir, Name: dn, Ino: dnode},
			Effect{Kind: EffFree, Ino: dnode, Node: dnodeNode},
		)
	}
	ddirNode = fs.own(ddir, ddirNode)
	if sdir == ddir {
		sdirNode = ddirNode // one node: owning it twice would drop the first copy
	} else {
		sdirNode = fs.own(sdir, sdirNode)
	}
	delete(sdirNode.Links, sn)
	ddirNode.Links[dn] = snode
	effects = append(effects,
		Effect{Kind: EffDel, Parent: sdir, Name: sn, Ino: snode},
		Effect{Kind: EffIns, Parent: ddir, Name: dn, Ino: snode},
	)
	return OkRet(), effects
}

// detach is the source half of a cross-volume rename: it unlinks the named
// subtree from its parent and frees every inode in it. Any kind detaches —
// the destination's attach enforces rename's victim type checks, so detach
// itself only requires that the source link exists.
func (fs *AFS) detach(path string) (Ret, []Effect) {
	dirParts, name, err := pathname.SplitDir(path)
	if err != nil {
		return ErrRet(err), nil
	}
	parent, err := fs.Resolve(dirParts)
	if err != nil {
		return ErrRet(err), nil
	}
	pn := fs.Imap[parent]
	if pn.Kind != KindDir {
		return ErrRet(fserr.ErrNotDir), nil
	}
	child, ok := pn.Links[name]
	if !ok {
		return ErrRet(fserr.ErrNotExist), nil
	}
	delete(fs.own(parent, pn).Links, name)
	effects := []Effect{{Kind: EffDel, Parent: parent, Name: name, Ino: child}}
	var free func(Inum)
	free = func(ino Inum) {
		n := fs.Imap[ino]
		delete(fs.Imap, ino)
		effects = append(effects, Effect{Kind: EffFree, Ino: ino, Node: n})
		if n.Kind != KindDir {
			return
		}
		names := make([]string, 0, len(n.Links))
		for nm := range n.Links {
			names = append(names, nm)
		}
		sortStrings(names)
		for _, nm := range names {
			free(n.Links[nm])
		}
	}
	free(child)
	return OkRet(), effects
}

// attach is the destination half of a cross-volume rename: it grafts the
// subtree payload under path, assigning fresh inode numbers throughout. An
// existing destination is overwritten with exactly rename's victim
// semantics (dir payloads may replace only empty dirs, file payloads may
// not replace dirs), so the composed detach+attach refines RenameSpec.
func (fs *AFS) attach(path string, sub *SubTree) (Ret, []Effect) {
	if sub == nil || (sub.Kind != KindFile && sub.Kind != KindDir) {
		return ErrRet(fserr.ErrInvalid), nil
	}
	dirParts, name, err := pathname.SplitDir(path)
	if err != nil {
		return ErrRet(err), nil
	}
	parent, err := fs.Resolve(dirParts)
	if err != nil {
		return ErrRet(err), nil
	}
	pn := fs.Imap[parent]
	if pn.Kind != KindDir {
		return ErrRet(fserr.ErrNotDir), nil
	}
	var effects []Effect
	if dnode, exists := pn.Links[name]; exists {
		dnodeNode := fs.Imap[dnode]
		if sub.Kind == KindDir {
			if dnodeNode.Kind != KindDir {
				return ErrRet(fserr.ErrNotDir), nil
			}
			if len(dnodeNode.Links) != 0 {
				return ErrRet(fserr.ErrNotEmpty), nil
			}
		} else if dnodeNode.Kind == KindDir {
			return ErrRet(fserr.ErrIsDir), nil
		}
		pn = fs.own(parent, pn)
		delete(pn.Links, name)
		delete(fs.Imap, dnode)
		effects = append(effects,
			Effect{Kind: EffDel, Parent: parent, Name: name, Ino: dnode},
			Effect{Kind: EffFree, Ino: dnode, Node: dnodeNode},
		)
	}
	var build func(t *SubTree) Inum
	build = func(t *SubTree) Inum {
		ino := fs.alloc(t.Kind)
		n := fs.Imap[ino]
		effects = append(effects, Effect{Kind: EffCreat, Ino: ino})
		if t.Kind == KindFile {
			n.Data = append([]byte(nil), t.Data...)
			return ino
		}
		names := make([]string, 0, len(t.Children))
		for nm := range t.Children {
			names = append(names, nm)
		}
		sortStrings(names)
		for _, nm := range names {
			n.Links[nm] = build(t.Children[nm])
		}
		return ino
	}
	top := build(sub)
	fs.own(parent, pn).Links[name] = top
	effects = append(effects, Effect{Kind: EffIns, Parent: parent, Name: name, Ino: top})
	return OkRet(), effects
}

func samePath(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (fs *AFS) stat(path string) (Ret, []Effect) {
	ino, err := fs.ResolvePath(path)
	if err != nil {
		return ErrRet(err), nil
	}
	n := fs.Imap[ino]
	r := Ret{Kind: n.Kind}
	if n.Kind == KindFile {
		r.Size = int64(len(n.Data))
	} else {
		r.Size = int64(len(n.Links))
	}
	return r, nil
}

func (fs *AFS) read(path string, off int64, size int) (Ret, []Effect) {
	if off < 0 || size < 0 {
		return ErrRet(fserr.ErrInvalid), nil
	}
	ino, err := fs.ResolvePath(path)
	if err != nil {
		return ErrRet(err), nil
	}
	n := fs.Imap[ino]
	if n.Kind == KindDir {
		return ErrRet(fserr.ErrIsDir), nil
	}
	if off >= int64(len(n.Data)) {
		return Ret{Data: []byte{}}, nil
	}
	end := off + int64(size)
	if end > int64(len(n.Data)) {
		end = int64(len(n.Data))
	}
	data := append([]byte(nil), n.Data[off:end]...)
	return Ret{Data: data, N: len(data)}, nil
}

func (fs *AFS) write(path string, off int64, data []byte) (Ret, []Effect) {
	if off < 0 {
		return ErrRet(fserr.ErrInvalid), nil
	}
	if off+int64(len(data)) > MaxFileSize {
		return ErrRet(fserr.ErrNoSpace), nil
	}
	ino, err := fs.ResolvePath(path)
	if err != nil {
		return ErrRet(err), nil
	}
	n := fs.Imap[ino]
	if n.Kind == KindDir {
		return ErrRet(fserr.ErrIsDir), nil
	}
	n = fs.own(ino, n)
	end := off + int64(len(data))
	// Save the overwritten window for rollback: old length plus the bytes
	// in [off, min(end, oldLen)).
	oldLen := int64(len(n.Data))
	var saved []byte
	if off < oldLen {
		upTo := min(end, oldLen)
		saved = append([]byte(nil), n.Data[off:upTo]...)
	}
	if end > oldLen {
		n.Data = append(n.Data, make([]byte, end-oldLen)...)
	}
	copy(n.Data[off:end], data)
	return Ret{N: len(data)}, []Effect{
		{Kind: EffWrite, Ino: ino, Off: off, OldData: saved, OldSize: oldLen},
	}
}

func (fs *AFS) truncate(path string, size int64) (Ret, []Effect) {
	if size < 0 || size > MaxFileSize {
		return ErrRet(fserr.ErrInvalid), nil
	}
	ino, err := fs.ResolvePath(path)
	if err != nil {
		return ErrRet(err), nil
	}
	n := fs.Imap[ino]
	if n.Kind == KindDir {
		return ErrRet(fserr.ErrIsDir), nil
	}
	n = fs.own(ino, n)
	old := n.Data
	if size <= int64(len(n.Data)) {
		n.Data = append([]byte(nil), n.Data[:size]...)
	} else {
		n.Data = append(append([]byte(nil), n.Data...), make([]byte, size-int64(len(old)))...)
	}
	return OkRet(), []Effect{{Kind: EffTrunc, Ino: ino, OldData: old}}
}

func (fs *AFS) readdir(path string) (Ret, []Effect) {
	ino, err := fs.ResolvePath(path)
	if err != nil {
		return ErrRet(err), nil
	}
	n := fs.Imap[ino]
	if n.Kind != KindDir {
		return ErrRet(fserr.ErrNotDir), nil
	}
	names := make([]string, 0, len(n.Links))
	for name := range n.Links {
		names = append(names, name)
	}
	sortStrings(names)
	return Ret{Names: names}, nil
}
