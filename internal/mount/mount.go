// Package mount stitches several independent file-system volumes into one
// namespace behind a longest-prefix mount table (DESIGN.md §13). Each
// volume is a complete fsapi.FS — for atomfs volumes, an independent
// instance with its own monitor and prefix-cache generation space — and
// every namespace operation resolves its path to a
// (volume, residual path) pair before delegating.
//
// The table is immutable once serving: Mount is a setup-time call, and the
// namespace takes no lock on the resolve fast path. Mount points are
// pinned — renaming a mount point (or an ancestor of one), or removing
// one, fails with EBUSY, exactly like a Linux mount point. That guard is
// also what makes cross-volume rename sound: a source subtree can never
// contain a mount point, so the detached payload is wholly owned by the
// source volume.
//
// A rename whose source and destination resolve to different volumes is a
// cross-volume rename. When both volumes implement atomfs.CrossVolume it
// runs as the two-phase helped protocol of internal/core — detach-prepare
// on the source, attach-commit on the destination, a single commit point
// in HelpCommit — serialized under one namespace-wide mutex (two-phase
// pairs on disjoint volume pairs would be safe to overlap, but a single
// mutex is trivially deadlock-free and cross renames are rare). For
// volume types without the protocol, renameGeneric falls back to a
// non-atomic copy+delete that mirrors rename's error precedence.
package mount

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/atomfs"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/pathname"
	"repro/internal/spec"
)

// Entry is one mount-table row.
type Entry struct {
	Path string // normalized absolute mount point ("/" for the root volume)
	FS   fsapi.FS

	parts []string
}

// NS is a namespace of volumes behind a mount table. It implements
// fsapi.FS. Configure with Mount before serving operations; the table is
// not safe to mutate concurrently with use.
type NS struct {
	mounts []Entry // sorted by decreasing depth: first prefix match wins

	// crossMu serializes every cross-volume rename in the namespace, so
	// two in-flight two-phase pairs can never wait on each other's held
	// spines (deadlock freedom by mutual exclusion).
	crossMu sync.Mutex
}

// New returns a namespace whose root ("/") is served by root.
func New(root fsapi.FS) *NS {
	return &NS{mounts: []Entry{{Path: "/", FS: root}}}
}

// Mount grafts vol at path, creating covering directories for each
// component of path in the volumes below it (existing directories are
// fine). Setup-time only: must not race with operations or other Mounts.
func (ns *NS) Mount(ctx context.Context, path string, vol fsapi.FS) error {
	parts, err := pathname.Split(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return fserr.ErrBusy // the root volume is fixed at New
	}
	for _, e := range ns.mounts {
		if len(e.parts) == len(parts) && prefixEq(e.parts, parts) {
			return fserr.ErrExist
		}
	}
	// Covering directories: each prefix of the mount path must exist in
	// whichever volume serves it under the *current* table.
	for i := 1; i <= len(parts); i++ {
		v, rel := ns.resolveParts(parts[:i])
		if rel == "/" {
			continue // this prefix IS a mount point: its root exists
		}
		if err := v.Mkdir(ctx, rel); err != nil && !errors.Is(err, fserr.ErrExist) {
			return err
		}
	}
	ns.mounts = append(ns.mounts, Entry{Path: pathname.Join(parts), FS: vol, parts: parts})
	sort.SliceStable(ns.mounts, func(i, j int) bool {
		return len(ns.mounts[i].parts) > len(ns.mounts[j].parts)
	})
	return nil
}

// Mounts returns the table rows, deepest first.
func (ns *NS) Mounts() []Entry { return append([]Entry{}, ns.mounts...) }

// Name implements the optional fsapi naming hook.
func (ns *NS) Name() string {
	names := make([]string, len(ns.mounts))
	for i, e := range ns.mounts {
		names[i] = e.Path
	}
	return fmt.Sprintf("ns[%d](%s)", len(ns.mounts), strings.Join(names, ","))
}

func prefixEq(prefix, parts []string) bool {
	for i, p := range prefix {
		if parts[i] != p {
			return false
		}
	}
	return true
}

// resolveParts finds the deepest mount whose path is a prefix of parts and
// returns its volume plus the residual path inside it.
func (ns *NS) resolveParts(parts []string) (fsapi.FS, string) {
	for _, e := range ns.mounts {
		if len(e.parts) <= len(parts) && prefixEq(e.parts, parts) {
			return e.FS, pathname.Join(parts[len(e.parts):])
		}
	}
	// Unreachable: the root entry has zero parts and matches everything.
	return ns.mounts[len(ns.mounts)-1].FS, pathname.Join(parts)
}

// resolveCanonical is resolveParts for a canonical path
// (pathname.Canonical), matched as a string: a mount covers path when its
// Path is path or a prefix of it ending at a "/", and the residual is the
// rest of path, a substring. It allocates nothing.
func (ns *NS) resolveCanonical(path string) (fsapi.FS, string) {
	for _, e := range ns.mounts {
		switch {
		case len(e.parts) == 0:
			return e.FS, path
		case path == e.Path:
			return e.FS, "/"
		case len(path) > len(e.Path) && path[len(e.Path)] == '/' && path[:len(e.Path)] == e.Path:
			return e.FS, path[len(e.Path):]
		}
	}
	// Unreachable: the root entry has zero parts and matches everything.
	return ns.mounts[len(ns.mounts)-1].FS, path
}

// Resolve maps an absolute path to its serving volume and residual path.
// A canonical path resolves on the string, without allocating; any other
// is split and re-joined.
func (ns *NS) Resolve(path string) (fsapi.FS, string, error) {
	if pathname.Canonical(path) {
		v, rel := ns.resolveCanonical(path)
		return v, rel, nil
	}
	parts, err := pathname.Split(path)
	if err != nil {
		return nil, "", err
	}
	v, rel := ns.resolveParts(parts)
	return v, rel, nil
}

// resolvePinned is Resolve for the operations that may not touch a
// mount point: it also reports whether path pins one (pinsMount).
func (ns *NS) resolvePinned(path string) (v fsapi.FS, rel string, pinned bool, err error) {
	if pathname.Canonical(path) {
		v, rel = ns.resolveCanonical(path)
		return v, rel, ns.pinsCanonical(path), nil
	}
	parts, err := pathname.Split(path)
	if err != nil {
		return nil, "", false, err
	}
	v, rel = ns.resolveParts(parts)
	return v, rel, ns.pinsMount(parts), nil
}

// pinsMount reports whether parts is a mount point or an ancestor of one:
// paths the namespace refuses to rename or remove (EBUSY). The root entry
// (zero parts) never pins — everything would be its "descendant".
func (ns *NS) pinsMount(parts []string) bool {
	for _, e := range ns.mounts {
		if len(e.parts) > 0 && len(parts) <= len(e.parts) && prefixEq(parts, e.parts) {
			return true
		}
	}
	return false
}

// pinsCanonical is pinsMount for a canonical path, matched as a string.
func (ns *NS) pinsCanonical(path string) bool {
	if path == "/" {
		return len(ns.mounts) > 1 // every other mount is below the root
	}
	for _, e := range ns.mounts {
		if len(e.parts) > 0 && len(path) <= len(e.Path) && e.Path[:len(path)] == path &&
			(len(path) == len(e.Path) || e.Path[len(path)] == '/') {
			return true
		}
	}
	return false
}

// --- fsapi.FS ---------------------------------------------------------

func (ns *NS) Mknod(ctx context.Context, path string) error {
	v, rel, err := ns.Resolve(path)
	if err != nil {
		return err
	}
	return v.Mknod(ctx, rel)
}

func (ns *NS) Mkdir(ctx context.Context, path string) error {
	v, rel, err := ns.Resolve(path)
	if err != nil {
		return err
	}
	return v.Mkdir(ctx, rel)
}

func (ns *NS) Rmdir(ctx context.Context, path string) error {
	v, rel, pinned, err := ns.resolvePinned(path)
	if err != nil {
		return err
	}
	if pinned {
		return fserr.ErrBusy
	}
	return v.Rmdir(ctx, rel)
}

func (ns *NS) Unlink(ctx context.Context, path string) error {
	v, rel, pinned, err := ns.resolvePinned(path)
	if err != nil {
		return err
	}
	if pinned {
		return fserr.ErrBusy
	}
	return v.Unlink(ctx, rel)
}

func (ns *NS) Stat(ctx context.Context, path string) (fsapi.Info, error) {
	v, rel, err := ns.Resolve(path)
	if err != nil {
		return fsapi.Info{}, err
	}
	return v.Stat(ctx, rel)
}

func (ns *NS) Read(ctx context.Context, path string, off int64, dst []byte) (int, error) {
	v, rel, err := ns.Resolve(path)
	if err != nil {
		return 0, err
	}
	return v.Read(ctx, rel, off, dst)
}

func (ns *NS) Write(ctx context.Context, path string, off int64, data []byte) (int, error) {
	v, rel, err := ns.Resolve(path)
	if err != nil {
		return 0, err
	}
	return v.Write(ctx, rel, off, data)
}

func (ns *NS) Truncate(ctx context.Context, path string, size int64) error {
	v, rel, err := ns.Resolve(path)
	if err != nil {
		return err
	}
	return v.Truncate(ctx, rel, size)
}

func (ns *NS) Readdir(ctx context.Context, path string) ([]string, error) {
	v, rel, err := ns.Resolve(path)
	if err != nil {
		return nil, err
	}
	return v.Readdir(ctx, rel)
}

// Rename renames within one volume directly, or composes a cross-volume
// rename. Mount points and their ancestors are pinned (EBUSY).
func (ns *NS) Rename(ctx context.Context, src, dst string) error {
	sv, srel, spinned, err := ns.resolvePinned(src)
	if err != nil {
		return err
	}
	dv, drel, dpinned, err := ns.resolvePinned(dst)
	if err != nil {
		return err
	}
	if spinned || dpinned {
		return fserr.ErrBusy
	}
	if sv == dv {
		return sv.Rename(ctx, srel, drel)
	}
	ns.crossMu.Lock()
	defer ns.crossMu.Unlock()
	sc, sok := sv.(atomfs.CrossVolume)
	dc, dok := dv.(atomfs.CrossVolume)
	if !sok || !dok {
		return ns.renameGeneric(ctx, sv, srel, dv, drel)
	}
	rec := &core.CrossRecord{}
	det, err := sc.DetachPrepare(ctx, srel, rec)
	if err != nil {
		return err
	}
	return det.Complete(dc.AttachCommit(ctx, drel, rec))
}

// renameGeneric is the copy+delete fallback for volume types without the
// two-phase protocol. It is NOT atomic — concurrent mutations of either
// subtree can interleave — but it mirrors rename's error precedence:
// source existence first, then destination parent, then victim semantics.
func (ns *NS) renameGeneric(ctx context.Context, sv fsapi.FS, srel string, dv fsapi.FS, drel string) error {
	si, err := sv.Stat(ctx, srel)
	if err != nil {
		return err
	}
	ddir, _, err := pathname.SplitDir(drel)
	if err != nil {
		return err
	}
	pi, err := dv.Stat(ctx, pathname.Join(ddir))
	if err != nil {
		return err
	}
	if pi.Kind != spec.KindDir {
		return fserr.ErrNotDir
	}
	if di, derr := dv.Stat(ctx, drel); derr == nil {
		// Victim semantics, as in rename and attach.
		if si.Kind == spec.KindDir {
			if di.Kind != spec.KindDir {
				return fserr.ErrNotDir
			}
			if err := dv.Rmdir(ctx, drel); err != nil {
				return err // ErrNotEmpty included
			}
		} else {
			if di.Kind == spec.KindDir {
				return fserr.ErrIsDir
			}
			if err := dv.Unlink(ctx, drel); err != nil {
				return err
			}
		}
	} else if !errors.Is(derr, fserr.ErrNotExist) {
		return derr
	}
	if err := copyTree(ctx, sv, srel, si.Kind, dv, drel); err != nil {
		return err
	}
	return deleteTree(ctx, sv, srel, si.Kind)
}

func copyTree(ctx context.Context, sv fsapi.FS, spath string, kind spec.Kind, dv fsapi.FS, dpath string) error {
	if kind == spec.KindFile {
		if err := dv.Mknod(ctx, dpath); err != nil {
			return err
		}
		info, err := sv.Stat(ctx, spath)
		if err != nil {
			return err
		}
		if info.Size == 0 {
			return nil
		}
		data, err := fsapi.ReadAll(ctx, sv, spath, 0, int(info.Size))
		if err != nil {
			return err
		}
		_, err = dv.Write(ctx, dpath, 0, data)
		return err
	}
	if err := dv.Mkdir(ctx, dpath); err != nil {
		return err
	}
	names, err := sv.Readdir(ctx, spath)
	if err != nil {
		return err
	}
	for _, name := range names {
		ci, err := sv.Stat(ctx, spath+"/"+name)
		if err != nil {
			return err
		}
		if err := copyTree(ctx, sv, spath+"/"+name, ci.Kind, dv, dpath+"/"+name); err != nil {
			return err
		}
	}
	return nil
}

func deleteTree(ctx context.Context, v fsapi.FS, path string, kind spec.Kind) error {
	if kind == spec.KindFile {
		return v.Unlink(ctx, path)
	}
	names, err := v.Readdir(ctx, path)
	if err != nil {
		return err
	}
	for _, name := range names {
		ci, err := v.Stat(ctx, path+"/"+name)
		if err != nil {
			return err
		}
		if err := deleteTree(ctx, v, path+"/"+name, ci.Kind); err != nil {
			return err
		}
	}
	return v.Rmdir(ctx, path)
}

var _ fsapi.FS = (*NS)(nil)
