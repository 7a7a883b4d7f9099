package spec

// Binary codec for operation payloads and subtree snapshots: the wire
// format of the write-ahead journal (internal/wal). Everything is
// length-prefixed with uvarints and rendered deterministically —
// directory children are emitted in sorted name order — so two encodes
// of equal states are byte-identical (journal checkpoints must be
// reproducible to be diffable and testable).
//
// The codec lives in spec rather than wal because it is a property of
// the abstract state: what a journal record MEANS is an Aop, and the
// payload is exactly the Aop's arguments.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// ErrCodec is wrapped by every decode failure.
var ErrCodec = errors.New("spec: malformed encoding")

func codecErr(format string, a ...any) error {
	return fmt.Errorf("%w: %s", ErrCodec, fmt.Sprintf(format, a...))
}

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst []byte, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, codecErr("truncated uvarint")
	}
	return v, b[n:], nil
}

func takeBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := takeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, codecErr("length %d exceeds %d remaining bytes", n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

// AppendSubTree encodes t onto dst. A directory's children are written
// sorted by name; nil t encodes as an absent marker (kind 0).
func AppendSubTree(dst []byte, t *SubTree) []byte {
	if t == nil {
		return append(dst, byte(KindInvalid))
	}
	dst = append(dst, byte(t.Kind))
	if t.Kind == KindFile {
		return appendBytes(dst, t.Data)
	}
	names := make([]string, 0, len(t.Children))
	for name := range t.Children {
		names = append(names, name)
	}
	sort.Strings(names)
	dst = appendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		dst = appendString(dst, name)
		dst = AppendSubTree(dst, t.Children[name])
	}
	return dst
}

// EncodeTree streams the encoding of the subtree rooted at ino to emit:
// the concatenation of the emitted slices is byte for byte
// AppendSubTree(nil, fs.Export(ino)), without the deep copy and without
// ever holding the encoding in one piece — file contents are handed to
// emit in place. emit must not retain or modify its argument. Like Export
// it panics on a dangling inode number.
func (fs *AFS) EncodeTree(ino Inum, emit func([]byte)) {
	e := treeEncoder{fs: fs, emit: emit}
	e.encode(ino)
}

// treeEncoder carries EncodeTree's two reusable buffers, so a walk
// allocates for its widest path, not per inode.
type treeEncoder struct {
	fs   *AFS
	emit func([]byte)
	hdr  []byte   // kind, counts and names, rebuilt per emit
	name []string // stack of the sorted child names of every open directory
}

func (e *treeEncoder) encode(ino Inum) {
	n := e.fs.Imap[ino]
	if n == nil {
		panic(fmt.Sprintf("spec: EncodeTree of dangling inode %d", ino))
	}
	if n.Kind == KindFile {
		e.hdr = appendUvarint(append(e.hdr[:0], byte(KindFile)), uint64(len(n.Data)))
		e.emit(e.hdr)
		e.emit(n.Data)
		return
	}
	lo := len(e.name)
	for name := range n.Links {
		e.name = append(e.name, name)
	}
	sort.Strings(e.name[lo:])
	e.hdr = appendUvarint(append(e.hdr[:0], byte(n.Kind)), uint64(len(n.Links)))
	e.emit(e.hdr)
	for i := lo; i < lo+len(n.Links); i++ {
		name := e.name[i] // indexed afresh: a child's append may move the stack
		e.hdr = appendString(e.hdr[:0], name)
		e.emit(e.hdr)
		e.encode(n.Links[name])
	}
	e.name = e.name[:lo]
}

// EncodedTreeSize returns the number of bytes EncodeTree(ino, ...) emits,
// without emitting them: the length a frame header must announce before
// the payload is streamed.
func (fs *AFS) EncodedTreeSize(ino Inum) int64 {
	n := fs.Imap[ino]
	if n == nil {
		panic(fmt.Sprintf("spec: EncodedTreeSize of dangling inode %d", ino))
	}
	if n.Kind == KindFile {
		return 1 + uvarintLen(uint64(len(n.Data))) + int64(len(n.Data))
	}
	size := 1 + uvarintLen(uint64(len(n.Links)))
	for name, child := range n.Links {
		size += uvarintLen(uint64(len(name))) + int64(len(name)) + fs.EncodedTreeSize(child)
	}
	return size
}

// uvarintLen is len(binary.AppendUvarint(nil, v)): seven bits per byte.
func uvarintLen(v uint64) int64 { return int64(bits.Len64(v|1)+6) / 7 }

// DecodeSubTree decodes one subtree from b and returns it with the
// remaining bytes. An absent marker decodes to nil.
func DecodeSubTree(b []byte) (*SubTree, []byte, error) {
	if len(b) == 0 {
		return nil, nil, codecErr("truncated subtree")
	}
	kind, b := Kind(b[0]), b[1:]
	switch kind {
	case KindInvalid:
		return nil, b, nil
	case KindFile:
		data, rest, err := takeBytes(b)
		if err != nil {
			return nil, nil, err
		}
		t := &SubTree{Kind: KindFile}
		if len(data) > 0 {
			t.Data = append([]byte(nil), data...)
		}
		return t, rest, nil
	case KindDir:
		n, rest, err := takeUvarint(b)
		if err != nil {
			return nil, nil, err
		}
		if n > uint64(len(rest)) { // each child costs >= 1 byte
			return nil, nil, codecErr("subtree claims %d children in %d bytes", n, len(rest))
		}
		t := &SubTree{Kind: KindDir, Children: make(map[string]*SubTree, n)}
		for i := uint64(0); i < n; i++ {
			var nameB []byte
			nameB, rest, err = takeBytes(rest)
			if err != nil {
				return nil, nil, err
			}
			var child *SubTree
			child, rest, err = DecodeSubTree(rest)
			if err != nil {
				return nil, nil, err
			}
			if child == nil {
				return nil, nil, codecErr("absent child %q in directory", nameB)
			}
			t.Children[string(nameB)] = child
		}
		return t, rest, nil
	default:
		return nil, nil, codecErr("unknown subtree kind %d", kind)
	}
}

// AppendArgs encodes an operation's arguments onto dst. The encoding
// carries every Args field (a field unused by the op encodes as zero
// cost: one byte or one uvarint), so it is op-independent and a record
// round-trips regardless of which Aop it belongs to.
func AppendArgs(dst []byte, a Args) []byte {
	dst = appendString(dst, a.Path)
	dst = appendString(dst, a.Path2)
	dst = appendUvarint(dst, uint64(a.Off))
	dst = appendUvarint(dst, uint64(a.Size))
	dst = appendBytes(dst, a.Data)
	return AppendSubTree(dst, a.Sub)
}

// DecodeArgs decodes one Args from b and returns the remaining bytes.
func DecodeArgs(b []byte) (Args, []byte, error) {
	var a Args
	path, b, err := takeBytes(b)
	if err != nil {
		return a, nil, err
	}
	path2, b, err := takeBytes(b)
	if err != nil {
		return a, nil, err
	}
	off, b, err := takeUvarint(b)
	if err != nil {
		return a, nil, err
	}
	size, b, err := takeUvarint(b)
	if err != nil {
		return a, nil, err
	}
	data, b, err := takeBytes(b)
	if err != nil {
		return a, nil, err
	}
	sub, b, err := DecodeSubTree(b)
	if err != nil {
		return a, nil, err
	}
	a.Path, a.Path2 = string(path), string(path2)
	a.Off, a.Size = int64(off), int(size)
	if len(data) > 0 {
		a.Data = append([]byte(nil), data...)
	}
	a.Sub = sub
	return a, b, nil
}

// FromSubTree builds a fresh AFS whose root holds the contents of t,
// which must be a directory — the inverse of Export(Root) up to inode
// numbering. Checkpoint recovery rebuilds its abstract state through it.
func FromSubTree(t *SubTree) (*AFS, error) {
	if t == nil || t.Kind != KindDir {
		return nil, codecErr("root subtree must be a directory")
	}
	fs := New()
	var graft func(ino Inum, t *SubTree)
	graft = func(ino Inum, t *SubTree) {
		n := fs.Imap[ino]
		names := make([]string, 0, len(t.Children))
		for name := range t.Children {
			names = append(names, name)
		}
		sort.Strings(names) // deterministic inode numbering
		for _, name := range names {
			c := t.Children[name]
			child := fs.alloc(c.Kind)
			n.Links[name] = child
			if c.Kind == KindDir {
				graft(child, c)
			} else if len(c.Data) > 0 {
				fs.Imap[child].Data = append([]byte(nil), c.Data...)
			}
		}
	}
	graft(fs.Root, t)
	return fs, nil
}
