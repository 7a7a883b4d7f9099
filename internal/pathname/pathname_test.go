package pathname

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fserr"
)

func TestSplitBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
		err  error
	}{
		{"/", nil, nil},
		{"/a", []string{"a"}, nil},
		{"/a/b/c", []string{"a", "b", "c"}, nil},
		{"/a/", []string{"a"}, nil},
		{"//a//b", []string{"a", "b"}, nil},
		{"", nil, fserr.ErrInvalid},
		{"a/b", nil, fserr.ErrInvalid},
		{"/a/./b", nil, fserr.ErrInvalid},
		{"/a/../b", nil, fserr.ErrInvalid},
		{"/a\x00b", nil, fserr.ErrInvalid},
		{"/" + strings.Repeat("x", MaxNameLen+1), nil, fserr.ErrNameTooLong},
	}
	for _, c := range cases {
		got, err := Split(c.in)
		if !errors.Is(err, c.err) && err != c.err {
			t.Errorf("Split(%q) err = %v, want %v", c.in, err, c.err)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, c.want) && !(len(got) == 0 && len(c.want) == 0) {
			t.Errorf("Split(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSplitTooLongPath(t *testing.T) {
	long := "/" + strings.Repeat("a/", MaxPathLen)
	if _, err := Split(long); !errors.Is(err, fserr.ErrNameTooLong) {
		t.Errorf("Split(long) err = %v, want ErrNameTooLong", err)
	}
}

func TestSplitDir(t *testing.T) {
	dir, name, err := SplitDir("/a/b/c")
	if err != nil || !reflect.DeepEqual(dir, []string{"a", "b"}) || name != "c" {
		t.Fatalf("SplitDir(/a/b/c) = %v %q %v", dir, name, err)
	}
	if _, _, err := SplitDir("/"); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("SplitDir(/) err = %v, want ErrInvalid", err)
	}
	dir, name, err = SplitDir("/top")
	if err != nil || len(dir) != 0 || name != "top" {
		t.Fatalf("SplitDir(/top) = %v %q %v", dir, name, err)
	}
}

func TestValidName(t *testing.T) {
	for _, bad := range []string{"", ".", "..", "a/b", "a\x00", strings.Repeat("z", MaxNameLen+1)} {
		if err := ValidName(bad); err == nil {
			t.Errorf("ValidName(%q) = nil, want error", bad)
		}
	}
	for _, good := range []string{"a", "a.b", "...", "with space", strings.Repeat("z", MaxNameLen)} {
		if err := ValidName(good); err != nil {
			t.Errorf("ValidName(%q) = %v, want nil", good, err)
		}
	}
}

// genParts produces a random valid component slice.
func genParts(r *rand.Rand) []string {
	n := r.Intn(6)
	parts := make([]string, n)
	const alphabet = "abcdefgh_-."
	for i := range parts {
		m := 1 + r.Intn(8)
		b := make([]byte, m)
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		s := string(b)
		if s == "." || s == ".." {
			s = s + "x"
		}
		parts[i] = s
	}
	return parts
}

func TestPropertySplitJoinRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		parts := genParts(r)
		got, err := Split(Join(parts))
		if err != nil {
			return false
		}
		if len(got) != len(parts) {
			return false
		}
		for i := range got {
			if got[i] != parts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCleanIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := Join(genParts(r))
		c1, err1 := Clean(p)
		c2, err2 := Clean(c1)
		return err1 == nil && err2 == nil && c1 == c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsPrefix(t *testing.T) {
	cases := []struct {
		a, b []string
		want bool
	}{
		{nil, nil, true},
		{nil, []string{"a"}, true},
		{[]string{"a"}, []string{"a"}, true},
		{[]string{"a"}, []string{"a", "b"}, true},
		{[]string{"a", "b"}, []string{"a"}, false},
		{[]string{"a"}, []string{"b", "a"}, false},
	}
	for _, c := range cases {
		if got := IsPrefix(c.a, c.b); got != c.want {
			t.Errorf("IsPrefix(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCommonPrefixLen(t *testing.T) {
	if got := CommonPrefixLen([]string{"a", "b", "c"}, []string{"a", "b", "x"}); got != 2 {
		t.Errorf("CommonPrefixLen = %d, want 2", got)
	}
	if got := CommonPrefixLen(nil, []string{"a"}); got != 0 {
		t.Errorf("CommonPrefixLen = %d, want 0", got)
	}
	if got := CommonPrefixLen([]string{"a"}, []string{"a"}); got != 1 {
		t.Errorf("CommonPrefixLen = %d, want 1", got)
	}
}

func TestPropertyIsPrefixViaCommonPrefix(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genParts(r), genParts(r)
		return IsPrefix(a, b) == (CommonPrefixLen(a, b) == len(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitAppendReusesBuffer(t *testing.T) {
	buf := make([]string, 0, 8)
	parts, err := SplitAppend("/a/b/c", buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 || &parts[0] != &buf[:1][0] {
		t.Fatalf("parts = %v, not aliasing caller buffer", parts)
	}
	// Reusing the buffer must not disturb components already extracted:
	// they are substrings of the original path, not buffer contents.
	a := parts[0]
	parts2, err := SplitAppend("/x/y", parts[:0])
	if err != nil {
		t.Fatal(err)
	}
	if a != "a" || parts2[0] != "x" || parts2[1] != "y" {
		t.Fatalf("reuse corrupted components: %q %v", a, parts2)
	}
}

func TestSplitAppendAgreesWithSplit(t *testing.T) {
	buf := make([]string, 0, 4)
	for _, p := range []string{"/", "/a", "/a/b/c", "//a//b/", "/a/../b", "/a\x00b", "", "a/b"} {
		want, werr := Split(p)
		got, gerr := SplitAppend(p, buf[:0])
		if (werr == nil) != (gerr == nil) || (werr == nil && !equal(want, got)) {
			t.Errorf("Split(%q) = %v,%v but SplitAppend = %v,%v", p, want, werr, got, gerr)
		}
	}
}

func equal(a, b []string) bool {
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

// TestCanonical: a path is canonical exactly when it is valid and Clean
// leaves it unchanged.
func TestCanonical(t *testing.T) {
	long := "/" + strings.Repeat("n", MaxNameLen+1)
	for _, p := range []string{
		"/", "/a", "/a/b", "/v1/d03/sub/f001", "//", "/a/", "/a//b", "a/b", "",
		"/.", "/a/..", "/a/.b", "/a\x00b", long, "/..a", "/a/b/",
	} {
		clean, err := Clean(p)
		want := err == nil && clean == p
		if got := Canonical(p); got != want {
			t.Errorf("Canonical(%q) = %v, want %v (Clean: %q, %v)", p, got, want, clean, err)
		}
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		p := Join(genParts(r))
		if !Canonical(p) {
			t.Fatalf("Canonical(%q) = false for a joined path", p)
		}
	}
}
