// Package spec is the abstract level of the CRL-H reproduction: the file
// system abstraction of Figure 6 in the AtomFS paper, the abstract
// operations (Aops) that specify each concrete operation, the micro-op
// effects recorded for helped operations, and the roll-back mechanism of
// §4.4 that relates an abstract state running ahead of the concrete state.
//
// An AFS is the paper's "root inode number plus a map from inode numbers to
// inodes"; an inode is either a directory (name -> inode number links) or a
// file (byte contents). Aops are atomic transitions on an AFS and double as
// the sequential reference model for the offline linearizability checker
// and for differential testing of the concrete file systems.
package spec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fserr"
	"repro/internal/pathname"
)

// Inum is an abstract inode number.
type Inum int64

// RootIno is the inode number of the root directory in a fresh AFS.
const RootIno Inum = 1

// NoIno is the zero, never-valid inode number.
const NoIno Inum = 0

// Kind distinguishes files from directories.
type Kind uint8

// Inode kinds.
const (
	KindInvalid Kind = iota
	KindFile
	KindDir
)

func (k Kind) String() string {
	switch k {
	case KindFile:
		return "file"
	case KindDir:
		return "dir"
	default:
		return "invalid"
	}
}

// ANode is an abstract inode: Dir(Links) or File(Data), per Figure 6.
type ANode struct {
	Kind  Kind
	Links map[string]Inum // directories
	Data  []byte          // files
	// gen is the generation of the AFS that made the node: a node older
	// than the live snapshot is shared with it and copied before it
	// changes (see Snapshot).
	gen uint64
}

// Clone deep-copies the node.
func (n *ANode) Clone() *ANode {
	c := &ANode{Kind: n.Kind}
	if n.Links != nil {
		c.Links = make(map[string]Inum, len(n.Links))
		for k, v := range n.Links {
			c.Links[k] = v
		}
	}
	if n.Data != nil {
		c.Data = append([]byte(nil), n.Data...)
	}
	return c
}

// SubTree is a self-contained deep copy of a subtree: the payload that a
// cross-volume rename carries from the source volume's OpDetach to the
// destination volume's OpAttach. Unlike ANode it holds its children by
// value, so it is meaningful outside the inode map that produced it.
type SubTree struct {
	Kind     Kind
	Data     []byte              // files
	Children map[string]*SubTree // directories
}

// Count returns the number of inodes in the subtree.
func (t *SubTree) Count() int {
	n := 1
	for _, c := range t.Children {
		n += c.Count()
	}
	return n
}

// Export deep-copies the subtree rooted at ino into a self-contained
// payload. It panics on a dangling inode number — callers resolve first.
func (fs *AFS) Export(ino Inum) *SubTree {
	n := fs.Imap[ino]
	if n == nil {
		panic(fmt.Sprintf("spec: Export of dangling inode %d", ino))
	}
	t := &SubTree{Kind: n.Kind}
	if n.Data != nil {
		t.Data = append([]byte(nil), n.Data...)
	}
	if n.Kind == KindDir {
		t.Children = make(map[string]*SubTree, len(n.Links))
		for name, child := range n.Links {
			t.Children[name] = fs.Export(child)
		}
	}
	return t
}

// AFS is the abstract file system state.
type AFS struct {
	Imap map[Inum]*ANode
	Root Inum
	next Inum // next inode number to allocate
	// gen counts the snapshots taken; shared is the generation of the
	// live one (0 = none), so a node with gen < shared is shared with it.
	gen    uint64
	shared uint64
}

// New creates an AFS containing only an empty root directory.
func New() *AFS {
	return &AFS{
		Imap: map[Inum]*ANode{RootIno: {Kind: KindDir, Links: map[string]Inum{}}},
		Root: RootIno,
		next: RootIno + 1,
	}
}

// Clone deep-copies the state; the linearizability checker branches on
// clones.
func (fs *AFS) Clone() *AFS {
	c := &AFS{Imap: make(map[Inum]*ANode, len(fs.Imap)), Root: fs.Root, next: fs.next}
	for i, n := range fs.Imap {
		c.Imap[i] = n.Clone()
	}
	return c
}

func (fs *AFS) alloc(kind Kind) Inum {
	ino := fs.next
	fs.next++
	n := &ANode{Kind: kind, gen: fs.gen}
	if kind == KindDir {
		n.Links = map[string]Inum{}
	}
	fs.Imap[ino] = n
	return ino
}

// Snapshot freezes the state into a read-only view and starts a
// copy-on-write period: until Unshare, every change fs makes to a node
// the view shares goes to a private copy, so the view keeps the state of
// the instant of the call while fs moves on. The view's inode map is
// index, cleared and refilled (nil allocates one), so a caller that
// snapshots repeatedly reuses one map. A snapshot costs one map copy;
// outside a copy-on-write period a mutation pays one compare for it.
func (fs *AFS) Snapshot(index map[Inum]*ANode) *AFS {
	if index == nil {
		index = make(map[Inum]*ANode, len(fs.Imap))
	}
	clear(index)
	for ino, n := range fs.Imap {
		index[ino] = n
	}
	fs.gen++
	fs.shared = fs.gen
	return &AFS{Imap: index, Root: fs.Root, next: fs.next}
}

// Unshare ends the copy-on-write period of the last Snapshot: the view
// must no longer be read, and fs changes its nodes in place again.
func (fs *AFS) Unshare() { fs.shared = 0 }

// own returns n, the node of inode ino, ready to change in place: a node
// the live snapshot shares is first replaced in Imap by a private copy.
func (fs *AFS) own(ino Inum, n *ANode) *ANode {
	if n.gen >= fs.shared {
		return n
	}
	c := n.Clone()
	c.gen = fs.gen
	fs.Imap[ino] = c
	return c
}

// Resolve walks parts from the root and returns the reached inode number.
// A missing component yields ErrNotExist; descending through a file yields
// ErrNotDir.
func (fs *AFS) Resolve(parts []string) (Inum, error) {
	cur := fs.Root
	for _, name := range parts {
		n := fs.Imap[cur]
		if n.Kind != KindDir {
			return NoIno, fserr.ErrNotDir
		}
		child, ok := n.Links[name]
		if !ok {
			return NoIno, fserr.ErrNotExist
		}
		cur = child
	}
	return cur, nil
}

// ResolvePath parses and resolves an absolute path.
func (fs *AFS) ResolvePath(path string) (Inum, error) {
	parts, err := pathname.Split(path)
	if err != nil {
		return NoIno, err
	}
	return fs.Resolve(parts)
}

// GoodAFS checks the well-formedness invariant from Table 1: the abstract
// file system forms a tree rooted at Root — the root exists and is a
// directory, every link targets an existing inode, every non-root inode has
// exactly one parent, and every inode is reachable from the root.
func (fs *AFS) GoodAFS() error {
	root, ok := fs.Imap[fs.Root]
	if !ok {
		return fmt.Errorf("GoodAFS: root %d missing", fs.Root)
	}
	if root.Kind != KindDir {
		return fmt.Errorf("GoodAFS: root is not a directory")
	}
	parents := make(map[Inum]int, len(fs.Imap))
	for ino, n := range fs.Imap {
		if n.Kind != KindDir {
			continue
		}
		for name, child := range n.Links {
			if _, ok := fs.Imap[child]; !ok {
				return fmt.Errorf("GoodAFS: %d/%q -> dangling inode %d", ino, name, child)
			}
			parents[child]++
		}
	}
	if parents[fs.Root] != 0 {
		return fmt.Errorf("GoodAFS: root has a parent link")
	}
	for ino := range fs.Imap {
		if ino == fs.Root {
			continue
		}
		if parents[ino] != 1 {
			return fmt.Errorf("GoodAFS: inode %d has %d parent links", ino, parents[ino])
		}
	}
	// Single-parent plus full coverage implies reachability unless there is
	// a cycle detached from the root; walk to rule that out.
	seen := map[Inum]bool{}
	var walk func(Inum) error
	walk = func(ino Inum) error {
		if seen[ino] {
			return fmt.Errorf("GoodAFS: inode %d visited twice (cycle)", ino)
		}
		seen[ino] = true
		n := fs.Imap[ino]
		if n.Kind != KindDir {
			return nil
		}
		for _, child := range n.Links {
			if err := walk(child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(fs.Root); err != nil {
		return err
	}
	if len(seen) != len(fs.Imap) {
		return fmt.Errorf("GoodAFS: %d of %d inodes unreachable from root", len(fs.Imap)-len(seen), len(fs.Imap))
	}
	return nil
}

// Key returns a canonical string for the state, independent of inode
// numbering: a depth-first rendering of the tree by sorted names. The
// linearizability checker memoizes on it.
func (fs *AFS) Key() string {
	var b strings.Builder
	var walk func(Inum)
	walk = func(ino Inum) {
		n := fs.Imap[ino]
		if n.Kind == KindFile {
			b.WriteByte('f')
			b.WriteString(strconv.Itoa(len(n.Data)))
			b.WriteByte(':')
			b.Write(n.Data)
			return
		}
		b.WriteByte('d')
		names := make([]string, 0, len(n.Links))
		for name := range n.Links {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteByte('{')
		for _, name := range names {
			b.WriteString(strconv.Quote(name))
			b.WriteByte('=')
			walk(n.Links[name])
			b.WriteByte(';')
		}
		b.WriteByte('}')
	}
	walk(fs.Root)
	return b.String()
}

// NumInodes returns the number of inodes in the state.
func (fs *AFS) NumInodes() int { return len(fs.Imap) }

// String renders the tree for debugging: one line per inode, indented by
// depth, files with their sizes.
func (fs *AFS) String() string {
	var b strings.Builder
	var walk func(name string, ino Inum, indent string)
	walk = func(name string, ino Inum, indent string) {
		n := fs.Imap[ino]
		if n == nil {
			fmt.Fprintf(&b, "%s%s -> MISSING %d\n", indent, name, ino)
			return
		}
		if n.Kind == KindFile {
			fmt.Fprintf(&b, "%s%s (%d bytes)\n", indent, name, len(n.Data))
			return
		}
		fmt.Fprintf(&b, "%s%s/\n", indent, name)
		names := make([]string, 0, len(n.Links))
		for nm := range n.Links {
			names = append(names, nm)
		}
		sort.Strings(names)
		for _, nm := range names {
			walk(nm, n.Links[nm], indent+"  ")
		}
	}
	walk("", fs.Root, "")
	return b.String()
}
