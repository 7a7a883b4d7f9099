// Package pathname implements path parsing and validation for the file
// systems in this repository.
//
// Paths are absolute, slash-separated, and rooted at "/". Components are
// validated against the usual POSIX constraints (no NUL, no '/', bounded
// length). The parser is deliberately strict: "." and ".." are rejected so
// that path traversal in the concurrent file systems is a pure top-down
// walk, matching the AtomFS model where every lookup descends from the root.
package pathname

import (
	"strings"

	"repro/internal/fserr"
)

// MaxNameLen bounds a single path component, mirroring NAME_MAX.
const MaxNameLen = 255

// MaxPathLen bounds a whole path, mirroring PATH_MAX.
const MaxPathLen = 4096

// ValidName reports whether name is usable as a directory entry name.
func ValidName(name string) error {
	switch {
	case name == "" || name == "." || name == "..":
		return fserr.ErrInvalid
	case len(name) > MaxNameLen:
		return fserr.ErrNameTooLong
	case strings.IndexByte(name, '/') >= 0 || strings.IndexByte(name, 0) >= 0:
		return fserr.ErrInvalid
	}
	return nil
}

// Split parses an absolute path into its components. The root path "/"
// yields an empty slice. Repeated slashes and a single trailing slash are
// tolerated (as in POSIX pathname resolution); every component is validated
// with ValidName.
func Split(path string) ([]string, error) {
	return SplitAppend(path, nil)
}

// SplitAppend is Split parsing into buf's storage. Callers on hot paths
// keep a per-operation buffer and pass buf[:0] so that steady-state
// parsing performs no allocation; the returned slice aliases buf whenever
// its capacity suffices. The components themselves are substrings of
// path, so they stay valid after buf is reused.
func SplitAppend(path string, buf []string) ([]string, error) {
	if len(path) > MaxPathLen {
		return nil, fserr.ErrNameTooLong
	}
	if path == "" || path[0] != '/' {
		return nil, fserr.ErrInvalid
	}
	parts := buf[:0]
	if cap(parts) == 0 && len(path) > 1 {
		// No caller buffer: allocate once at the worst-case component
		// count instead of letting append double repeatedly.
		parts = make([]string, 0, strings.Count(path, "/"))
	}
	// Single manual scan: components are short, so one byte compare per
	// character beats per-component IndexByte calls. The NUL check rides
	// the same pass (a separate IndexByte pre-scan re-reads the whole
	// path); slash is already excluded (split boundary), leaving
	// ValidName's "", ".", ".." and length checks to do inline.
	start := 1
	for i := 1; i <= len(path); i++ {
		if i < len(path) {
			if b := path[i]; b != '/' {
				if b == 0 {
					return nil, fserr.ErrInvalid
				}
				continue
			}
		}
		c := path[start:i]
		start = i + 1
		switch {
		case c == "":
			// Tolerate "//" and a trailing "/".
		case c == "." || c == "..":
			return nil, fserr.ErrInvalid
		case len(c) > MaxNameLen:
			return nil, fserr.ErrNameTooLong
		default:
			parts = append(parts, c)
		}
	}
	return parts, nil
}

// Canonical reports whether path is valid and already in the form
// Join(Split(path)) renders: absolute, no empty component ("//" or a
// trailing "/"), no "." or "..", no NUL, within the length limits. Such a
// path can be matched and sliced as a string, without splitting it.
func Canonical(path string) bool {
	if len(path) == 0 || len(path) > MaxPathLen || path[0] != '/' {
		return false
	}
	if len(path) == 1 {
		return true
	}
	start := 1
	for i := 1; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			if path[i] == 0 {
				return false
			}
			continue
		}
		if c := path[start:i]; c == "" || c == "." || c == ".." || len(c) > MaxNameLen {
			return false
		}
		start = i + 1
	}
	return true
}

// SplitDir parses path into the components of its parent directory plus the
// final name. It fails with ErrInvalid on the root path, which has no
// parent.
func SplitDir(path string) (dir []string, name string, err error) {
	return SplitDirAppend(path, nil)
}

// SplitDirAppend is SplitDir with SplitAppend's buffer-reuse contract.
func SplitDirAppend(path string, buf []string) (dir []string, name string, err error) {
	parts, err := SplitAppend(path, buf)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", fserr.ErrInvalid
	}
	return parts[:len(parts)-1], parts[len(parts)-1], nil
}

// Join renders components back into an absolute path.
func Join(parts []string) string {
	if len(parts) == 0 {
		return "/"
	}
	return "/" + strings.Join(parts, "/")
}

// Clean parses and re-renders path in canonical form.
func Clean(path string) (string, error) {
	parts, err := Split(path)
	if err != nil {
		return "", err
	}
	return Join(parts), nil
}

// IsPrefix reports whether components a form a (non-strict) prefix of b.
// It implements the path-containment test used by rename's subtree check
// ("is dst inside src?") and by the linearize-before relations.
func IsPrefix(a, b []string) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CommonPrefixLen returns the length of the longest common prefix of a and
// b. Rename uses it to find the last common ancestor of source and
// destination.
func CommonPrefixLen(a, b []string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
