// Package ilock provides the instrumented per-inode locks used by the
// concurrent file systems in this repository.
//
// A Mutex behaves like sync.Mutex but additionally tracks its current owner
// (an opaque uint64 thread/operation ID). Owner tracking is what lets the
// CRL-H monitor check the Last-locked-lockpath invariant from Table 1 of the
// AtomFS paper: the last inode in a thread's LockPath must actually be
// locked by that thread in the concrete file system.
//
// The package also provides SeqCount, a sequence counter in the style of the
// Linux kernel's rename_lock seqlock, used by the traversal-retry baseline
// file system (internal/retryfs).
package ilock

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// osyield hands the processor to another goroutine between backoff
// bursts. A variable so tests can count yields.
var osyield = runtime.Gosched

// NoOwner is the owner value of an unlocked Mutex. Real owner IDs must be
// non-zero.
const NoOwner uint64 = 0

// Mutex is a mutual-exclusion lock with owner tracking.
//
// The zero value is an unlocked mutex.
type Mutex struct {
	mu    sync.Mutex
	owner atomic.Uint64
}

// Lock acquires the mutex on behalf of tid. tid must be non-zero.
func (m *Mutex) Lock(tid uint64) {
	m.mu.Lock()
	m.owner.Store(tid)
}

// TryLock attempts to acquire the mutex without blocking and reports whether
// it succeeded.
func (m *Mutex) TryLock(tid uint64) bool {
	if !m.mu.TryLock() {
		return false
	}
	m.owner.Store(tid)
	return true
}

// Unlock releases the mutex. It panics if the mutex is not held by tid;
// lock discipline bugs in a file system should fail loudly rather than
// corrupt the tree.
func (m *Mutex) Unlock(tid uint64) {
	if got := m.owner.Load(); got != tid {
		panic("ilock: unlock by non-owner")
	}
	m.owner.Store(NoOwner)
	m.mu.Unlock()
}

// Owner returns the ID of the current holder, or NoOwner if unlocked. The
// value is advisory: it may be stale by the time the caller inspects it,
// which is fine for the monitor's use (it samples while it knows the holder
// cannot change).
func (m *Mutex) Owner() uint64 { return m.owner.Load() }

// HeldBy reports whether the mutex is currently held by tid.
func (m *Mutex) HeldBy(tid uint64) bool { return m.owner.Load() == tid }

// SeqCount is a writer sequence counter (seqlock reader side). Writers
// surround mutations with Begin/End, which makes the count odd while a
// write is in progress. Readers snapshot the count before a lock-free walk
// and re-validate it afterwards; a change means the walk may have observed
// a torn state and must be retried.
type SeqCount struct {
	seq atomic.Uint64
}

// Begin enters a write section. Only one writer may be inside a section at
// a time; callers serialize writers with their own lock.
func (s *SeqCount) Begin() {
	v := s.seq.Add(1)
	if v%2 == 0 {
		panic("ilock: SeqCount.Begin without matching End")
	}
}

// End leaves a write section.
func (s *SeqCount) End() {
	v := s.seq.Add(1)
	if v%2 == 1 {
		panic("ilock: SeqCount.End without matching Begin")
	}
}

// Read returns the current sequence value for a subsequent Validate. If a
// write is in progress, Read spins until it completes so that the caller
// starts from a stable snapshot.
func (s *SeqCount) Read() uint64 {
	v, _ := s.ReadRetries()
	return v
}

// ReadRetries is Read plus the number of spins it took to observe a
// stable (even) count — the seqlock retry pressure a reader experienced,
// which the observability layer accumulates to explain fast-path
// fallback storms.
func (s *SeqCount) ReadRetries() (uint64, int) {
	spins := 0
	for {
		v := s.seq.Load()
		if v%2 == 0 {
			return v, spins
		}
		spins++
	}
}

// ReadBounded is ReadRetries with a spin budget: it returns ok=false if
// the count stayed odd (a write section open) for budget consecutive
// observations. Waiting is exponential-backoff shaped — the reader spins
// a short burst, then yields the processor with doubling burst lengths —
// so a reader stuck behind a slow writer stops burning a core and the
// caller can fall back to its locked path instead. budget <= 0 means a
// single observation.
func (s *SeqCount) ReadBounded(budget int) (v uint64, spins int, ok bool) {
	burst := 4 // spin this many times before the first yield
	for {
		v := s.seq.Load()
		if v%2 == 0 {
			return v, spins, true
		}
		spins++
		if spins >= budget {
			return 0, spins, false
		}
		if spins >= burst {
			osyield()
			if burst < 1<<16 {
				burst *= 2
			}
		}
	}
}

// Validate reports whether no write section began since the Read that
// returned v.
func (s *SeqCount) Validate(v uint64) bool { return s.seq.Load() == v }
