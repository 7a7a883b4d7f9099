// Package dir implements the directory representation used by AtomFS:
// a hash table whose buckets are singly linked lists of entries (paper §6,
// "a hash table followed by linked lists for directory lookups").
//
// A Table maps entry names to values of any type (the concurrent file
// systems store inode pointers; the reference model stores inode numbers).
// Tables are NOT internally synchronized for writers: in AtomFS each table
// is mutated only under its owning inode's lock, which is exactly the
// paper's per-inode locking discipline, so adding a table lock here would
// hide bugs the monitor is supposed to catch.
//
// Readers, however, may run lock-free: the bucket heads and the per-entry
// next pointers are atomic, and mutations follow the RCU-hlist idiom —
//
//   - Insert fully initializes an entry (name, value, next) before
//     publishing it with a single atomic store of the bucket head, so a
//     concurrent Lookup sees either the old list or the complete new entry,
//     never a partially built one;
//   - Delete unlinks an entry by atomically re-pointing its predecessor
//     (or the bucket head) and leaves the removed entry's own next pointer
//     intact, so a reader standing on it keeps a consistent view of the
//     remainder of the chain;
//   - names and values are immutable once published.
//
// Each individual Lookup is therefore linearizable against locked writers.
// Multi-step path walks built from such lookups additionally need a
// namespace sequence counter to rule out cross-directory renames weaving
// an inconsistent path (see internal/atomfs's fast path). Len, Names and
// Range still require the owning inode's lock (or quiescence): the entry
// count and enumeration are only writer-consistent.
package dir

import (
	"sort"
	"sync/atomic"
)

const (
	// nBuckets is the fixed hash-table width. The paper's prototype uses a
	// simple fixed-size table; resizing is deliberately absent.
	nBuckets = 64
)

// RCU statistics (package-global, across every Table): how many entries
// were published (Insert's final atomic store) and unpublished (Delete's
// predecessor re-point). Counting lives on the mutation side only —
// Lookup, the hottest function in the repository, stays untouched; the
// walk layers that call it (internal/atomfs) count their own lock-free
// lookups per traversal instead, which costs one sharded atomic per
// operation rather than one global atomic per path component.
var (
	statsOn    atomic.Bool
	statPubs   atomic.Uint64
	statUnpubs atomic.Uint64
)

// EnableStats switches RCU statistics collection on or off.
func EnableStats(on bool) { statsOn.Store(on) }

// RCUStats returns the cumulative publish / unpublish counts (zeros
// until EnableStats(true)).
func RCUStats() (publishes, unpublishes uint64) {
	return statPubs.Load(), statUnpubs.Load()
}

type entry[V any] struct {
	name string
	val  V
	next atomic.Pointer[entry[V]]
}

// Table is a name -> value map with deterministic, sorted enumeration.
// The zero value is not usable; call New.
type Table[V any] struct {
	buckets [nBuckets]atomic.Pointer[entry[V]]
	n       int
}

// New creates an empty directory table.
func New[V any]() *Table[V] { return &Table[V]{} }

// fnv1a hashes a name without allocating.
func fnv1a(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

func bucketOf(name string) int { return int(fnv1a(name) % nBuckets) }

// Lookup returns the value bound to name. It is safe to call without the
// owning lock, concurrently with locked Insert/Delete/writers, and then
// observes the chain either before or after each individual mutation.
func (t *Table[V]) Lookup(name string) (V, bool) {
	for e := t.buckets[bucketOf(name)].Load(); e != nil; e = e.next.Load() {
		if e.name == name {
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// Insert binds name to val. It reports false (and changes nothing) if name
// is already present: the file systems check existence and insert under one
// inode lock, so a duplicate insert is a caller bug surfaced as a failure.
// Callers must hold the owning inode's lock.
func (t *Table[V]) Insert(name string, val V) bool {
	b := bucketOf(name)
	head := t.buckets[b].Load()
	for e := head; e != nil; e = e.next.Load() {
		if e.name == name {
			return false
		}
	}
	e := &entry[V]{name: name, val: val}
	e.next.Store(head)
	// Publish last: lock-free readers either miss e entirely or see it
	// fully initialized.
	t.buckets[b].Store(e)
	t.n++
	if statsOn.Load() {
		statPubs.Add(1)
	}
	return true
}

// Delete removes name, returning its value and whether it was present.
// Callers must hold the owning inode's lock. The unlinked entry keeps its
// next pointer so lock-free readers standing on it finish their traversal.
func (t *Table[V]) Delete(name string) (V, bool) {
	b := bucketOf(name)
	var prev *entry[V]
	for e := t.buckets[b].Load(); e != nil; prev, e = e, e.next.Load() {
		if e.name != name {
			continue
		}
		if prev == nil {
			t.buckets[b].Store(e.next.Load())
		} else {
			prev.next.Store(e.next.Load())
		}
		t.n--
		if statsOn.Load() {
			statUnpubs.Add(1)
		}
		return e.val, true
	}
	var zero V
	return zero, false
}

// Len returns the number of entries. Callers must hold the owning inode's
// lock (or guarantee quiescence).
func (t *Table[V]) Len() int { return t.n }

// Names returns all entry names in sorted order (readdir's enumeration
// order, kept deterministic so concrete results compare equal to the
// abstract specification's). Callers must hold the owning inode's lock.
func (t *Table[V]) Names() []string {
	names := make([]string, 0, t.n)
	for i := range t.buckets {
		for e := t.buckets[i].Load(); e != nil; e = e.next.Load() {
			names = append(names, e.name)
		}
	}
	sort.Strings(names)
	return names
}

// Range calls fn for every entry until fn returns false. Iteration order is
// unspecified. Callers must hold the owning inode's lock.
func (t *Table[V]) Range(fn func(name string, val V) bool) {
	for i := range t.buckets {
		for e := t.buckets[i].Load(); e != nil; e = e.next.Load() {
			if !fn(e.name, e.val) {
				return
			}
		}
	}
}
