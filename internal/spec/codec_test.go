package spec

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// randNames includes multi-byte and non-ASCII names: the codec is
// length-prefixed bytes and the child order is byte-wise, not by rune.
var randNames = []string{"a", "b", "c", "d", "Z", "é", "日本", "a b", "ab"}

func randSubTree(r *rand.Rand, depth int) *SubTree {
	if depth == 0 || r.Intn(3) == 0 {
		t := &SubTree{Kind: KindFile}
		if n := r.Intn(20); n > 0 {
			t.Data = make([]byte, n)
			r.Read(t.Data)
		}
		return t
	}
	t := &SubTree{Kind: KindDir, Children: map[string]*SubTree{}}
	for i := r.Intn(4); i > 0; i-- {
		name := randNames[r.Intn(len(randNames))]
		t.Children[name] = randSubTree(r, depth-1)
	}
	return t
}

func subTreeEqual(a, b *SubTree) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Kind != b.Kind || !bytes.Equal(a.Data, b.Data) || len(a.Children) != len(b.Children) {
		return false
	}
	for name, ac := range a.Children {
		if !subTreeEqual(ac, b.Children[name]) {
			return false
		}
	}
	return true
}

func TestSubTreeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		orig := randSubTree(r, 3)
		enc := AppendSubTree(nil, orig)
		dec, rest, err := DecodeSubTree(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode left %d bytes", len(rest))
		}
		if !subTreeEqual(orig, dec) {
			t.Fatalf("roundtrip mismatch:\n%+v\n%+v", orig, dec)
		}
		// Deterministic: re-encoding the decode is byte-identical.
		if !bytes.Equal(enc, AppendSubTree(nil, dec)) {
			t.Fatal("re-encode not byte-identical")
		}
	}
}

// TestEncodeTreeMatchesAppendSubTree is the format-equivalence property
// the journal's streaming checkpoint rests on: for any state, the bytes
// EncodeTree emits are AppendSubTree(nil, Export(ino)) and the counting
// pass announces exactly their length. A device written by either
// encoder therefore recovers under the other.
func TestEncodeTreeMatchesAppendSubTree(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		root := &SubTree{Kind: KindDir, Children: map[string]*SubTree{}}
		for j := r.Intn(4); j > 0; j-- { // 0: the empty root
			root.Children[randNames[r.Intn(len(randNames))]] = randSubTree(r, 4)
		}
		fs, err := FromSubTree(root)
		if err != nil {
			t.Fatalf("FromSubTree: %v", err)
		}
		for ino := range fs.Imap { // every subtree, not only the root
			want := AppendSubTree(nil, fs.Export(ino))
			var got []byte
			fs.EncodeTree(ino, func(p []byte) { got = append(got, p...) })
			if !bytes.Equal(got, want) {
				t.Fatalf("tree %d inode %d: streamed encoding differs:\n got %x\nwant %x", i, ino, got, want)
			}
			if n := fs.EncodedTreeSize(ino); n != int64(len(want)) {
				t.Fatalf("tree %d inode %d: EncodedTreeSize = %d, encoding is %d bytes", i, ino, n, len(want))
			}
		}
	}
}

func TestEncodeTreeLargeFile(t *testing.T) {
	// Lengths either side of every uvarint width the codec will meet.
	fs := New()
	for i, n := range []int{0, 1, 127, 128, 16383, 16384, 1 << 21} {
		path := "/f" + string(rune('a'+i))
		fs.Apply(OpMknod, Args{Path: path})
		if ret, _ := fs.Apply(OpWrite, Args{Path: path, Data: make([]byte, n)}); ret.Err != nil {
			t.Fatalf("write %d bytes: %v", n, ret.Err)
		}
	}
	want := AppendSubTree(nil, fs.Export(fs.Root))
	var got []byte
	fs.EncodeTree(fs.Root, func(p []byte) { got = append(got, p...) })
	if !bytes.Equal(got, want) || fs.EncodedTreeSize(fs.Root) != int64(len(want)) {
		t.Fatalf("streamed %d bytes, counted %d, want %d", len(got), fs.EncodedTreeSize(fs.Root), len(want))
	}
}

func TestSubTreeNil(t *testing.T) {
	enc := AppendSubTree(nil, nil)
	dec, rest, err := DecodeSubTree(enc)
	if err != nil || dec != nil || len(rest) != 0 {
		t.Fatalf("nil roundtrip: %v %v %d", dec, err, len(rest))
	}
}

func TestArgsRoundTrip(t *testing.T) {
	cases := []Args{
		{},
		{Path: "/a/b"},
		{Path: "/a", Path2: "/b"},
		{Path: "/f", Off: 4096, Data: []byte("payload")},
		{Path: "/f", Off: 7, Size: 123},
		{Path: "/dst", Sub: &SubTree{Kind: KindDir, Children: map[string]*SubTree{
			"f": {Kind: KindFile, Data: []byte("x")},
			"d": {Kind: KindDir, Children: map[string]*SubTree{}},
		}}},
	}
	for i, a := range cases {
		enc := AppendArgs(nil, a)
		dec, rest, err := DecodeArgs(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if len(rest) != 0 {
			t.Fatalf("case %d: %d trailing bytes", i, len(rest))
		}
		if dec.Path != a.Path || dec.Path2 != a.Path2 || dec.Off != a.Off ||
			dec.Size != a.Size || !bytes.Equal(dec.Data, a.Data) || !subTreeEqual(dec.Sub, a.Sub) {
			t.Fatalf("case %d: roundtrip mismatch: %+v vs %+v", i, a, dec)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := AppendArgs(nil, Args{Path: "/a/b/c", Data: []byte("hello"),
		Sub: &SubTree{Kind: KindDir, Children: map[string]*SubTree{"f": {Kind: KindFile}}}})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeArgs(full[:cut]); !errors.Is(err, ErrCodec) {
			t.Fatalf("cut at %d: err = %v, want ErrCodec", cut, err)
		}
	}
	if _, _, err := DecodeSubTree([]byte{99}); !errors.Is(err, ErrCodec) {
		t.Fatalf("bad kind: %v", err)
	}
	if _, _, err := DecodeSubTree(nil); !errors.Is(err, ErrCodec) {
		t.Fatal("empty subtree decode succeeded")
	}
}

func TestFromSubTree(t *testing.T) {
	afs := New()
	for _, e := range []struct {
		op   Op
		args Args
	}{
		{OpMkdir, Args{Path: "/d"}},
		{OpMkdir, Args{Path: "/d/e"}},
		{OpMknod, Args{Path: "/d/f"}},
		{OpWrite, Args{Path: "/d/f", Data: []byte("contents")}},
		{OpMknod, Args{Path: "/top"}},
	} {
		if ret, _ := afs.Apply(e.op, e.args); ret.Err != nil {
			t.Fatalf("%s: %v", e.op, ret.Err)
		}
	}
	rebuilt, err := FromSubTree(afs.Export(afs.Root))
	if err != nil {
		t.Fatalf("FromSubTree: %v", err)
	}
	if rebuilt.Key() != afs.Key() {
		t.Fatalf("rebuilt key mismatch:\n%s\n%s", rebuilt.Key(), afs.Key())
	}
	if err := rebuilt.GoodAFS(); err != nil {
		t.Fatalf("rebuilt not well-formed: %v", err)
	}
	// The rebuilt state must be live: applying an op must work.
	if ret, _ := rebuilt.Apply(OpMknod, Args{Path: "/d/e/new"}); ret.Err != nil {
		t.Fatalf("apply on rebuilt: %v", ret.Err)
	}

	if _, err := FromSubTree(nil); err == nil {
		t.Fatal("FromSubTree(nil) succeeded")
	}
	if _, err := FromSubTree(&SubTree{Kind: KindFile}); err == nil {
		t.Fatal("FromSubTree(file) succeeded")
	}
}
