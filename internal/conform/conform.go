// Package conform is the xfstests analogue for this repository: a
// black-box POSIX-semantics conformance suite runnable against any
// fsapi.FS. The paper reports AtomFS passing 418 of 451 xfstests cases,
// with every failure caused by unimplemented functionality (hard links,
// symlinks, permissions); this suite reproduces that shape — a catalogue
// of semantic cases that the file systems must pass, plus probes for the
// deliberately unimplemented features, reported separately.
package conform

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/fstest"
	"repro/internal/spec"
)

// Case is one conformance test. Run receives a fresh, empty file system
// and returns nil on pass.
type Case struct {
	Group string
	Name  string
	// Unsupported marks probes for functionality the prototype
	// intentionally lacks (the paper's 33 failing xfstests cases).
	Unsupported bool
	Run         func(ctx context.Context, fs fsapi.FS) error
}

// Result is one case's outcome.
type Result struct {
	Case   Case
	Passed bool
	Err    error
}

// Summary aggregates a run.
type Summary struct {
	FSName  string
	Results []Result
	Pass    int
	Fail    int
	// UnsupportedFail counts failures of Unsupported probes (expected).
	UnsupportedFail int
}

func (s *Summary) String() string {
	total := len(s.Results)
	return fmt.Sprintf("%s: %d/%d passed (%d failures are unsupported-feature probes)",
		s.FSName, s.Pass, total, s.UnsupportedFail)
}

// FailedCases lists the names of genuinely failing cases (not
// unsupported-feature probes).
func (s *Summary) FailedCases() []string {
	var out []string
	for _, r := range s.Results {
		if !r.Passed && !r.Case.Unsupported {
			out = append(out, fmt.Sprintf("%s/%s: %v", r.Case.Group, r.Case.Name, r.Err))
		}
	}
	return out
}

// Run executes every case against fresh file systems produced by mk.
func Run(ctx context.Context, name string, mk func() fsapi.FS) *Summary {
	s := &Summary{FSName: name}
	for _, c := range Cases() {
		err := runOne(ctx, c, mk)
		r := Result{Case: c, Passed: err == nil, Err: err}
		s.Results = append(s.Results, r)
		if r.Passed {
			s.Pass++
		} else {
			s.Fail++
			if c.Unsupported {
				s.UnsupportedFail++
			}
		}
	}
	return s
}

func runOne(ctx context.Context, c Case, mk func() fsapi.FS) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return c.Run(ctx, mk())
}

// --- helpers ------------------------------------------------------------

func want(err, sentinel error) error {
	if !errors.Is(err, sentinel) {
		return fmt.Errorf("got %v, want %v", err, sentinel)
	}
	return nil
}

func ok(err error) error {
	if err != nil {
		return fmt.Errorf("unexpected error: %w", err)
	}
	return nil
}

func first(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func mkdirs(ctx context.Context, fs fsapi.FS, paths ...string) error {
	for _, p := range paths {
		if err := fs.Mkdir(ctx, p); err != nil {
			return fmt.Errorf("setup mkdir %s: %w", p, err)
		}
	}
	return nil
}

// Cases returns the full catalogue.
func Cases() []Case {
	var cases []Case
	add := func(group, name string, run func(ctx context.Context, fs fsapi.FS) error) {
		cases = append(cases, Case{Group: group, Name: name, Run: run})
	}
	addUnsupported := func(group, name string, run func(ctx context.Context, fs fsapi.FS) error) {
		cases = append(cases, Case{Group: group, Name: name, Unsupported: true, Run: run})
	}

	// --- create group ---
	add("create", "mkdir-basic", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mkdir(ctx, "/d")), func() error {
			info, err := fs.Stat(ctx, "/d")
			if err != nil || info.Kind != spec.KindDir {
				return fmt.Errorf("stat: %+v %v", info, err)
			}
			return nil
		}())
	})
	add("create", "mknod-basic", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mknod(ctx, "/f")), func() error {
			info, err := fs.Stat(ctx, "/f")
			if err != nil || info.Kind != spec.KindFile || info.Size != 0 {
				return fmt.Errorf("stat: %+v %v", info, err)
			}
			return nil
		}())
	})
	add("create", "mkdir-eexist", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mkdir(ctx, "/d")), want(fs.Mkdir(ctx, "/d"), fserr.ErrExist))
	})
	add("create", "mkdir-eexist-file", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mknod(ctx, "/x")), want(fs.Mkdir(ctx, "/x"), fserr.ErrExist))
	})
	add("create", "mknod-eexist-dir", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mkdir(ctx, "/x")), want(fs.Mknod(ctx, "/x"), fserr.ErrExist))
	})
	add("create", "mkdir-enoent-parent", func(ctx context.Context, fs fsapi.FS) error {
		return want(fs.Mkdir(ctx, "/no/dir"), fserr.ErrNotExist)
	})
	add("create", "mkdir-enotdir-parent", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mknod(ctx, "/f")), want(fs.Mkdir(ctx, "/f/d"), fserr.ErrNotDir))
	})
	add("create", "mkdir-enotdir-intermediate", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mknod(ctx, "/f")), want(fs.Mkdir(ctx, "/f/a/b"), fserr.ErrNotDir))
	})
	add("create", "mkdir-root-einval", func(ctx context.Context, fs fsapi.FS) error {
		return want(fs.Mkdir(ctx, "/"), fserr.ErrInvalid)
	})
	add("create", "mkdir-relative-einval", func(ctx context.Context, fs fsapi.FS) error {
		return want(fs.Mkdir(ctx, "rel"), fserr.ErrInvalid)
	})
	add("create", "mkdir-dotdot-einval", func(ctx context.Context, fs fsapi.FS) error {
		return want(fs.Mkdir(ctx, "/a/../b"), fserr.ErrInvalid)
	})
	add("create", "name-too-long", func(ctx context.Context, fs fsapi.FS) error {
		return want(fs.Mkdir(ctx, "/"+strings.Repeat("x", 256)), fserr.ErrNameTooLong)
	})
	add("create", "name-max-ok", func(ctx context.Context, fs fsapi.FS) error {
		return ok(fs.Mkdir(ctx, "/"+strings.Repeat("x", 255)))
	})
	add("create", "name-with-spaces", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mkdir(ctx, "/a dir")), ok(fs.Mknod(ctx, "/a dir/a file")))
	})
	add("create", "name-unicode", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mkdir(ctx, "/目录")), ok(fs.Mknod(ctx, "/目录/ファイル")))
	})
	add("create", "trailing-slash", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mkdir(ctx, "/d/")), func() error {
			_, err := fs.Stat(ctx, "/d")
			return ok(err)
		}())
	})
	add("create", "double-slash", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mkdir(ctx, "/a")), ok(fs.Mknod(ctx, "//a//f")), func() error {
			_, err := fs.Stat(ctx, "/a/f")
			return ok(err)
		}())
	})
	add("create", "deep-nesting", func(ctx context.Context, fs fsapi.FS) error {
		p := ""
		for i := 0; i < 32; i++ {
			p = fmt.Sprintf("%s/l%d", p, i)
			if err := fs.Mkdir(ctx, p); err != nil {
				return err
			}
		}
		_, err := fs.Stat(ctx, p)
		return ok(err)
	})
	add("create", "many-siblings", func(ctx context.Context, fs fsapi.FS) error {
		if err := fs.Mkdir(ctx, "/d"); err != nil {
			return err
		}
		for i := 0; i < 500; i++ {
			if err := fs.Mknod(ctx, fmt.Sprintf("/d/f%03d", i)); err != nil {
				return err
			}
		}
		info, err := fs.Stat(ctx, "/d")
		if err != nil || info.Size != 500 {
			return fmt.Errorf("dir size = %+v %v", info, err)
		}
		return nil
	})

	// --- remove group ---
	add("remove", "rmdir-basic", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mkdir(ctx, "/d")), ok(fs.Rmdir(ctx, "/d")), want(fs.Rmdir(ctx, "/d"), fserr.ErrNotExist))
	})
	add("remove", "unlink-basic", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mknod(ctx, "/f")), ok(fs.Unlink(ctx, "/f")), want(fs.Unlink(ctx, "/f"), fserr.ErrNotExist))
	})
	add("remove", "rmdir-enotempty", func(ctx context.Context, fs fsapi.FS) error {
		return first(mkdirs(ctx, fs, "/d"), ok(fs.Mknod(ctx, "/d/f")), want(fs.Rmdir(ctx, "/d"), fserr.ErrNotEmpty))
	})
	add("remove", "rmdir-enotempty-subdir", func(ctx context.Context, fs fsapi.FS) error {
		return first(mkdirs(ctx, fs, "/d", "/d/e"), want(fs.Rmdir(ctx, "/d"), fserr.ErrNotEmpty))
	})
	add("remove", "rmdir-on-file", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mknod(ctx, "/f")), want(fs.Rmdir(ctx, "/f"), fserr.ErrNotDir))
	})
	add("remove", "unlink-on-dir", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mkdir(ctx, "/d")), want(fs.Unlink(ctx, "/d"), fserr.ErrIsDir))
	})
	add("remove", "rmdir-root", func(ctx context.Context, fs fsapi.FS) error {
		return want(fs.Rmdir(ctx, "/"), fserr.ErrInvalid)
	})
	add("remove", "remove-then-recreate", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mkdir(ctx, "/d")), ok(fs.Rmdir(ctx, "/d")), ok(fs.Mknod(ctx, "/d")), func() error {
			info, err := fs.Stat(ctx, "/d")
			if err != nil || info.Kind != spec.KindFile {
				return fmt.Errorf("recreated kind: %+v %v", info, err)
			}
			return nil
		}())
	})
	add("remove", "unlink-frees-space-for-name", func(ctx context.Context, fs fsapi.FS) error {
		return first(ok(fs.Mknod(ctx, "/f")), ok(fs.Unlink(ctx, "/f")), ok(fs.Mkdir(ctx, "/f")))
	})
	add("remove", "empty-tree-cleanup", func(ctx context.Context, fs fsapi.FS) error {
		if err := mkdirs(ctx, fs, "/a", "/a/b", "/a/b/c"); err != nil {
			return err
		}
		return first(ok(fs.Rmdir(ctx, "/a/b/c")), ok(fs.Rmdir(ctx, "/a/b")), ok(fs.Rmdir(ctx, "/a")))
	})

	// --- io group ---
	add("io", "write-read-roundtrip", func(ctx context.Context, fs fsapi.FS) error {
		if err := fs.Mknod(ctx, "/f"); err != nil {
			return err
		}
		payload := []byte("the quick brown fox")
		if _, err := fs.Write(ctx, "/f", 0, payload); err != nil {
			return err
		}
		got, err := fsapi.ReadAll(ctx, fs, "/f", 0, 100)
		if err != nil || !bytes.Equal(got, payload) {
			return fmt.Errorf("read = %q %v", got, err)
		}
		return nil
	})
	add("io", "overwrite-middle", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		fs.Write(ctx, "/f", 0, []byte("aaaaaaaaaa"))
		fs.Write(ctx, "/f", 3, []byte("BBB"))
		got, err := fsapi.ReadAll(ctx, fs, "/f", 0, 100)
		if err != nil || string(got) != "aaaBBBaaaa" {
			return fmt.Errorf("read = %q %v", got, err)
		}
		return nil
	})
	add("io", "sparse-hole-zeroes", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		if _, err := fs.Write(ctx, "/f", 100000, []byte("x")); err != nil {
			return err
		}
		got, err := fsapi.ReadAll(ctx, fs, "/f", 50000, 8)
		if err != nil || !bytes.Equal(got, make([]byte, 8)) {
			return fmt.Errorf("hole = %v %v", got, err)
		}
		info, _ := fs.Stat(ctx, "/f")
		if info.Size != 100001 {
			return fmt.Errorf("size = %d", info.Size)
		}
		return nil
	})
	add("io", "read-past-eof", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		fs.Write(ctx, "/f", 0, []byte("abc"))
		got, err := fsapi.ReadAll(ctx, fs, "/f", 10, 10)
		if err != nil || len(got) != 0 {
			return fmt.Errorf("read = %q %v", got, err)
		}
		return nil
	})
	add("io", "read-partial-at-eof", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		fs.Write(ctx, "/f", 0, []byte("abcdef"))
		got, err := fsapi.ReadAll(ctx, fs, "/f", 4, 10)
		if err != nil || string(got) != "ef" {
			return fmt.Errorf("read = %q %v", got, err)
		}
		return nil
	})
	add("io", "write-negative-offset", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		_, err := fs.Write(ctx, "/f", -1, []byte("x"))
		return want(err, fserr.ErrInvalid)
	})
	add("io", "read-negative", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		_, err := fsapi.ReadAll(ctx, fs, "/f", -1, 4)
		return want(err, fserr.ErrInvalid)
	})
	add("io", "write-to-dir", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mkdir(ctx, "/d")
		_, err := fs.Write(ctx, "/d", 0, []byte("x"))
		return want(err, fserr.ErrIsDir)
	})
	add("io", "read-from-dir", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mkdir(ctx, "/d")
		_, err := fsapi.ReadAll(ctx, fs, "/d", 0, 1)
		return want(err, fserr.ErrIsDir)
	})
	add("io", "truncate-shrink", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		fs.Write(ctx, "/f", 0, []byte("longcontent"))
		if err := fs.Truncate(ctx, "/f", 4); err != nil {
			return err
		}
		got, err := fsapi.ReadAll(ctx, fs, "/f", 0, 100)
		if err != nil || string(got) != "long" {
			return fmt.Errorf("read = %q %v", got, err)
		}
		return nil
	})
	add("io", "truncate-extend-zeroes", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		fs.Write(ctx, "/f", 0, []byte("ab"))
		if err := fs.Truncate(ctx, "/f", 6); err != nil {
			return err
		}
		got, err := fsapi.ReadAll(ctx, fs, "/f", 0, 100)
		if err != nil || !bytes.Equal(got, []byte{'a', 'b', 0, 0, 0, 0}) {
			return fmt.Errorf("read = %v %v", got, err)
		}
		return nil
	})
	add("io", "truncate-shrink-regrow-zeroes", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		fs.Write(ctx, "/f", 0, []byte("secret"))
		fs.Truncate(ctx, "/f", 0)
		fs.Truncate(ctx, "/f", 6)
		got, err := fsapi.ReadAll(ctx, fs, "/f", 0, 6)
		if err != nil || !bytes.Equal(got, make([]byte, 6)) {
			return fmt.Errorf("stale data after regrow: %q %v", got, err)
		}
		return nil
	})
	add("io", "truncate-dir", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mkdir(ctx, "/d")
		return want(fs.Truncate(ctx, "/d", 0), fserr.ErrIsDir)
	})
	add("io", "truncate-negative", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		return want(fs.Truncate(ctx, "/f", -1), fserr.ErrInvalid)
	})
	add("io", "large-file-1mb", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/big")
		payload := bytes.Repeat([]byte("0123456789abcdef"), 65536) // 1 MiB
		if _, err := fs.Write(ctx, "/big", 0, payload); err != nil {
			return err
		}
		got, err := fsapi.ReadAll(ctx, fs, "/big", 0, len(payload))
		if err != nil || !bytes.Equal(got, payload) {
			return fmt.Errorf("1MiB roundtrip failed: %v", err)
		}
		return nil
	})
	add("io", "cross-block-boundary", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		payload := bytes.Repeat([]byte{0xAB}, 5000)
		fs.Write(ctx, "/f", 4090, payload) // straddles a 4 KiB boundary
		got, err := fsapi.ReadAll(ctx, fs, "/f", 4090, 5000)
		if err != nil || !bytes.Equal(got, payload) {
			return fmt.Errorf("straddling write lost data: %v", err)
		}
		return nil
	})
	add("io", "append-pattern", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/log")
		off := int64(0)
		for i := 0; i < 50; i++ {
			line := []byte(fmt.Sprintf("line %02d\n", i))
			n, err := fs.Write(ctx, "/log", off, line)
			if err != nil {
				return err
			}
			off += int64(n)
		}
		info, _ := fs.Stat(ctx, "/log")
		if info.Size != off {
			return fmt.Errorf("size = %d, want %d", info.Size, off)
		}
		return nil
	})

	// --- readdir group ---
	add("readdir", "empty-dir", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mkdir(ctx, "/d")
		names, err := fs.Readdir(ctx, "/d")
		if err != nil || len(names) != 0 {
			return fmt.Errorf("names = %v %v", names, err)
		}
		return nil
	})
	add("readdir", "root-listing", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mkdir(ctx, "/b")
		fs.Mknod(ctx, "/a")
		names, err := fs.Readdir(ctx, "/")
		if err != nil || len(names) != 2 || names[0] != "a" || names[1] != "b" {
			return fmt.Errorf("names = %v %v", names, err)
		}
		return nil
	})
	add("readdir", "sorted-order", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mkdir(ctx, "/d")
		for _, n := range []string{"zz", "mm", "aa", "k"} {
			fs.Mknod(ctx, "/d/"+n)
		}
		names, err := fs.Readdir(ctx, "/d")
		if err != nil || !sort.StringsAreSorted(names) {
			return fmt.Errorf("names = %v %v", names, err)
		}
		return nil
	})
	add("readdir", "on-file-enotdir", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		_, err := fs.Readdir(ctx, "/f")
		return want(err, fserr.ErrNotDir)
	})
	add("readdir", "after-removals", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mkdir(ctx, "/d")
		for i := 0; i < 10; i++ {
			fs.Mknod(ctx, fmt.Sprintf("/d/f%d", i))
		}
		for i := 0; i < 10; i += 2 {
			fs.Unlink(ctx, fmt.Sprintf("/d/f%d", i))
		}
		names, err := fs.Readdir(ctx, "/d")
		if err != nil || len(names) != 5 {
			return fmt.Errorf("names = %v %v", names, err)
		}
		return nil
	})

	// --- rename group ---
	add("rename", "file-simple", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/a")
		fs.Write(ctx, "/a", 0, []byte("data"))
		if err := fs.Rename(ctx, "/a", "/b"); err != nil {
			return err
		}
		if _, err := fs.Stat(ctx, "/a"); !errors.Is(err, fserr.ErrNotExist) {
			return fmt.Errorf("source survived: %v", err)
		}
		got, err := fsapi.ReadAll(ctx, fs, "/b", 0, 10)
		if err != nil || string(got) != "data" {
			return fmt.Errorf("content lost: %q %v", got, err)
		}
		return nil
	})
	add("rename", "dir-with-subtree", func(ctx context.Context, fs fsapi.FS) error {
		if err := mkdirs(ctx, fs, "/src", "/src/sub"); err != nil {
			return err
		}
		fs.Mknod(ctx, "/src/sub/f")
		if err := fs.Rename(ctx, "/src", "/dst"); err != nil {
			return err
		}
		_, err := fs.Stat(ctx, "/dst/sub/f")
		return ok(err)
	})
	add("rename", "same-path-noop", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		return ok(fs.Rename(ctx, "/f", "/f"))
	})
	add("rename", "same-path-missing", func(ctx context.Context, fs fsapi.FS) error {
		return want(fs.Rename(ctx, "/nope", "/nope"), fserr.ErrNotExist)
	})
	add("rename", "into-own-subtree", func(ctx context.Context, fs fsapi.FS) error {
		mkdirs(ctx, fs, "/d")
		return want(fs.Rename(ctx, "/d", "/d/inside"), fserr.ErrInvalid)
	})
	add("rename", "into-own-grandchild", func(ctx context.Context, fs fsapi.FS) error {
		mkdirs(ctx, fs, "/d", "/d/e")
		return want(fs.Rename(ctx, "/d", "/d/e/deep"), fserr.ErrInvalid)
	})
	add("rename", "source-missing", func(ctx context.Context, fs fsapi.FS) error {
		return want(fs.Rename(ctx, "/ghost", "/x"), fserr.ErrNotExist)
	})
	add("rename", "dest-parent-missing", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		return want(fs.Rename(ctx, "/f", "/no/dir/f"), fserr.ErrNotExist)
	})
	add("rename", "dest-parent-is-file", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		fs.Mknod(ctx, "/g")
		return want(fs.Rename(ctx, "/f", "/g/x"), fserr.ErrNotDir)
	})
	add("rename", "overwrite-file", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/a")
		fs.Write(ctx, "/a", 0, []byte("A"))
		fs.Mknod(ctx, "/b")
		fs.Write(ctx, "/b", 0, []byte("BB"))
		if err := fs.Rename(ctx, "/a", "/b"); err != nil {
			return err
		}
		got, err := fsapi.ReadAll(ctx, fs, "/b", 0, 10)
		if err != nil || string(got) != "A" {
			return fmt.Errorf("content = %q %v", got, err)
		}
		return nil
	})
	add("rename", "overwrite-empty-dir", func(ctx context.Context, fs fsapi.FS) error {
		mkdirs(ctx, fs, "/a", "/b")
		fs.Mknod(ctx, "/a/keep")
		if err := fs.Rename(ctx, "/a", "/b"); err != nil {
			return err
		}
		_, err := fs.Stat(ctx, "/b/keep")
		return ok(err)
	})
	add("rename", "dir-over-nonempty-dir", func(ctx context.Context, fs fsapi.FS) error {
		mkdirs(ctx, fs, "/a", "/b")
		fs.Mknod(ctx, "/b/x")
		return want(fs.Rename(ctx, "/a", "/b"), fserr.ErrNotEmpty)
	})
	add("rename", "dir-over-file", func(ctx context.Context, fs fsapi.FS) error {
		mkdirs(ctx, fs, "/a")
		fs.Mknod(ctx, "/b")
		return want(fs.Rename(ctx, "/a", "/b"), fserr.ErrNotDir)
	})
	add("rename", "file-over-dir", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/a")
		mkdirs(ctx, fs, "/b")
		return want(fs.Rename(ctx, "/a", "/b"), fserr.ErrIsDir)
	})
	add("rename", "file-over-empty-dir", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/a")
		mkdirs(ctx, fs, "/b")
		return want(fs.Rename(ctx, "/a", "/b"), fserr.ErrIsDir)
	})
	add("rename", "root-as-source", func(ctx context.Context, fs fsapi.FS) error {
		return want(fs.Rename(ctx, "/", "/x"), fserr.ErrInvalid)
	})
	add("rename", "root-as-dest", func(ctx context.Context, fs fsapi.FS) error {
		mkdirs(ctx, fs, "/d")
		return want(fs.Rename(ctx, "/d", "/"), fserr.ErrInvalid)
	})
	add("rename", "within-same-dir", func(ctx context.Context, fs fsapi.FS) error {
		mkdirs(ctx, fs, "/d")
		fs.Mknod(ctx, "/d/old")
		if err := fs.Rename(ctx, "/d/old", "/d/new"); err != nil {
			return err
		}
		names, _ := fs.Readdir(ctx, "/d")
		if len(names) != 1 || names[0] != "new" {
			return fmt.Errorf("names = %v", names)
		}
		return nil
	})
	add("rename", "across-deep-branches", func(ctx context.Context, fs fsapi.FS) error {
		if err := mkdirs(ctx, fs, "/a", "/a/b", "/a/b/c", "/x", "/x/y"); err != nil {
			return err
		}
		fs.Mknod(ctx, "/a/b/c/f")
		if err := fs.Rename(ctx, "/a/b/c/f", "/x/y/f"); err != nil {
			return err
		}
		_, err := fs.Stat(ctx, "/x/y/f")
		return ok(err)
	})
	add("rename", "swap-via-temp", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/a")
		fs.Write(ctx, "/a", 0, []byte("A"))
		fs.Mknod(ctx, "/b")
		fs.Write(ctx, "/b", 0, []byte("B"))
		if err := first(ok(fs.Rename(ctx, "/a", "/tmp")), ok(fs.Rename(ctx, "/b", "/a")), ok(fs.Rename(ctx, "/tmp", "/b"))); err != nil {
			return err
		}
		ga, _ := fsapi.ReadAll(ctx, fs, "/a", 0, 1)
		gb, _ := fsapi.ReadAll(ctx, fs, "/b", 0, 1)
		if string(ga) != "B" || string(gb) != "A" {
			return fmt.Errorf("swap failed: %q %q", ga, gb)
		}
		return nil
	})
	add("rename", "onto-own-parent", func(ctx context.Context, fs fsapi.FS) error {
		if err := mkdirs(ctx, fs, "/p", "/p/c"); err != nil {
			return err
		}
		return want(fs.Rename(ctx, "/p/c", "/p"), fserr.ErrNotEmpty)
	})
	add("rename", "chain-of-renames", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f0")
		for i := 0; i < 20; i++ {
			if err := fs.Rename(ctx, fmt.Sprintf("/f%d", i), fmt.Sprintf("/f%d", i+1)); err != nil {
				return err
			}
		}
		_, err := fs.Stat(ctx, "/f20")
		return ok(err)
	})

	// --- stat group ---
	add("stat", "root", func(ctx context.Context, fs fsapi.FS) error {
		info, err := fs.Stat(ctx, "/")
		if err != nil || info.Kind != spec.KindDir {
			return fmt.Errorf("stat / = %+v %v", info, err)
		}
		return nil
	})
	add("stat", "missing", func(ctx context.Context, fs fsapi.FS) error {
		_, err := fs.Stat(ctx, "/ghost")
		return want(err, fserr.ErrNotExist)
	})
	add("stat", "through-file-enotdir", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		_, err := fs.Stat(ctx, "/f/below")
		return want(err, fserr.ErrNotDir)
	})
	add("stat", "file-size-tracks-writes", func(ctx context.Context, fs fsapi.FS) error {
		fs.Mknod(ctx, "/f")
		fs.Write(ctx, "/f", 0, []byte("12345"))
		fs.Write(ctx, "/f", 10, []byte("z"))
		info, err := fs.Stat(ctx, "/f")
		if err != nil || info.Size != 11 {
			return fmt.Errorf("size = %+v %v", info, err)
		}
		return nil
	})
	add("stat", "dir-size-is-entry-count", func(ctx context.Context, fs fsapi.FS) error {
		mkdirs(ctx, fs, "/d")
		fs.Mknod(ctx, "/d/a")
		fs.Mkdir(ctx, "/d/b")
		info, err := fs.Stat(ctx, "/d")
		if err != nil || info.Size != 2 {
			return fmt.Errorf("size = %+v %v", info, err)
		}
		return nil
	})

	// --- sequential-consistency group: random differential runs ---
	for seed := int64(100); seed < 110; seed++ {
		seed := seed
		add("differential", fmt.Sprintf("random-trace-%d", seed), func(ctx context.Context, fs fsapi.FS) error {
			model := spec.New()
			stream := fstest.NewOpStream(seed)
			for i := 0; i < 300; i++ {
				op, args := stream.Next()
				wantRet, _ := model.Apply(op, args)
				gotRet := fstest.ApplyFS(ctx, fs, op, args)
				if !gotRet.Equal(wantRet) {
					return fmt.Errorf("step %d: %s %s: got %s, want %s", i, op, args, gotRet, wantRet)
				}
			}
			return nil
		})
	}

	// --- unsupported-feature probes (the paper's 33 failing cases) ---
	addUnsupported("unsupported", "hard-links", func(ctx context.Context, fs fsapi.FS) error {
		type linker interface{ Link(old, new string) error }
		if l, okIface := fs.(linker); okIface {
			fs.Mknod(ctx, "/f")
			return l.Link("/f", "/g")
		}
		return errors.New("hard links not implemented")
	})
	addUnsupported("unsupported", "symlinks", func(ctx context.Context, fs fsapi.FS) error {
		type symlinker interface {
			Symlink(target, link string) error
		}
		if l, okIface := fs.(symlinker); okIface {
			return l.Symlink("/f", "/g")
		}
		return errors.New("symbolic links not implemented")
	})
	addUnsupported("unsupported", "permissions", func(ctx context.Context, fs fsapi.FS) error {
		type chmodder interface {
			Chmod(path string, mode uint32) error
		}
		if c, okIface := fs.(chmodder); okIface {
			fs.Mknod(ctx, "/f")
			return c.Chmod("/f", 0o600)
		}
		return errors.New("permission bits not implemented")
	})
	addUnsupported("unsupported", "ownership", func(ctx context.Context, fs fsapi.FS) error {
		type chowner interface {
			Chown(path string, uid, gid int) error
		}
		if c, okIface := fs.(chowner); okIface {
			fs.Mknod(ctx, "/f")
			return c.Chown("/f", 0, 0)
		}
		return errors.New("ownership not implemented")
	})
	addUnsupported("unsupported", "timestamps", func(ctx context.Context, fs fsapi.FS) error {
		type toucher interface {
			Utimens(path string, atime, mtime int64) error
		}
		if c, okIface := fs.(toucher); okIface {
			fs.Mknod(ctx, "/f")
			return c.Utimens("/f", 0, 0)
		}
		return errors.New("timestamps not implemented")
	})
	addUnsupported("unsupported", "xattrs", func(ctx context.Context, fs fsapi.FS) error {
		type xattrer interface {
			SetXattr(path, name string, value []byte) error
		}
		if c, okIface := fs.(xattrer); okIface {
			fs.Mknod(ctx, "/f")
			return c.SetXattr("/f", "user.test", []byte("v"))
		}
		return errors.New("extended attributes not implemented")
	})

	cases = append(cases, extraCases()...)
	return cases
}
