// Package block implements the ramdisk block store that backs file data in
// the AtomFS reproduction.
//
// The paper's AtomFS prototype stores file contents in fixed-size blocks
// addressed by "a fixed-size array of indexes" per file (§6) on a Linux
// ramdisk. This package is that substrate: a memory-resident array of
// fixed-size blocks with a sharded free-list allocator. Sharding keeps block
// allocation off the critical path of concurrent writers, where a single
// allocator lock would add contention that the paper's ramdisk does not
// have.
package block

import (
	"sync"

	"repro/internal/fserr"
)

// Size is the block size in bytes, matching the ubiquitous 4 KiB page.
const Size = 4096

// Index identifies a block within a Store. Indexes are dense, starting at 0.
type Index int32

// NoBlock is the sentinel for an unallocated block slot in a file's index
// array, used to represent holes.
const NoBlock Index = -1

const defaultShards = 8

// Store is a ramdisk: a bounded pool of fixed-size blocks.
//
// All methods are safe for concurrent use. Block contents are only
// synchronized by the caller's inode locks — the store itself guarantees
// nothing about concurrent reads and writes to the same block, exactly like
// a real disk.
type Store struct {
	blocks [][]byte // allocated lazily, indexed by Index
	shards []shard
	// next is the low-water mark of never-yet-allocated blocks, guarded by
	// nextMu. Freed blocks go to the shards; fresh blocks come from next.
	nextMu sync.Mutex
	next   Index
	limit  Index
}

type shard struct {
	mu   sync.Mutex
	free []Index
}

// NewStore creates a store holding at most nblocks blocks.
func NewStore(nblocks int) *Store {
	if nblocks <= 0 {
		panic("block: non-positive store size")
	}
	return &Store{
		blocks: make([][]byte, nblocks),
		shards: make([]shard, defaultShards),
		limit:  Index(nblocks),
	}
}

// NBlocks returns the capacity of the store in blocks.
func (s *Store) NBlocks() int { return int(s.limit) }

// Alloc allocates a zeroed block. The hint spreads contending callers over
// free-list shards; any value works (callers typically pass their thread
// ID).
func (s *Store) Alloc(hint uint64) (Index, error) {
	start := int(hint) % len(s.shards)
	if start < 0 {
		start = -start
	}
	for i := 0; i < len(s.shards); i++ {
		sh := &s.shards[(start+i)%len(s.shards)]
		sh.mu.Lock()
		if n := len(sh.free); n > 0 {
			idx := sh.free[n-1]
			sh.free = sh.free[:n-1]
			sh.mu.Unlock()
			clear(s.blocks[idx])
			return idx, nil
		}
		sh.mu.Unlock()
	}
	s.nextMu.Lock()
	if s.next >= s.limit {
		s.nextMu.Unlock()
		return NoBlock, fserr.ErrNoSpace
	}
	idx := s.next
	s.next++
	s.nextMu.Unlock()
	s.blocks[idx] = make([]byte, Size)
	return idx, nil
}

// Free returns a block to the allocator. Freeing NoBlock is a no-op.
func (s *Store) Free(idx Index, hint uint64) {
	if idx == NoBlock {
		return
	}
	if idx < 0 || idx >= s.limit || s.blocks[idx] == nil {
		panic("block: free of invalid block")
	}
	shn := int(hint) % len(s.shards)
	if shn < 0 {
		shn = -shn
	}
	sh := &s.shards[shn]
	sh.mu.Lock()
	sh.free = append(sh.free, idx)
	sh.mu.Unlock()
}

// Data returns the in-memory contents of an allocated block. The slice
// aliases the store; callers synchronize access via their own locks.
func (s *Store) Data(idx Index) []byte {
	if idx < 0 || idx >= s.limit || s.blocks[idx] == nil {
		panic("block: access to unallocated block")
	}
	return s.blocks[idx]
}

// Range calls fn for every materialized block in ascending index order —
// every block that has ever been allocated, whether currently in use or
// sitting on a free list (the store has no per-block ownership record, by
// design: a real disk does not know which sectors a file system considers
// live). fn returning false stops the iteration. The visiting order is
// deterministic, which is what lets a journal checkpoint walk its blocks
// byte-reproducibly; the data slices alias the store, exactly like Data.
// Callers guarantee quiescence, as with InUse.
func (s *Store) Range(fn func(idx Index, data []byte) bool) {
	s.nextMu.Lock()
	hi := s.next
	s.nextMu.Unlock()
	for i := Index(0); i < hi; i++ {
		if s.blocks[i] == nil {
			continue // freed and re-pooled storage is never nil; this is a hole from a torn init
		}
		if !fn(i, s.blocks[i]) {
			return
		}
	}
}

// InUse returns the number of currently allocated blocks. It is advisory
// under concurrency and exact when quiescent; tests use it to detect leaks.
func (s *Store) InUse() int {
	s.nextMu.Lock()
	total := int(s.next)
	s.nextMu.Unlock()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total -= len(sh.free)
		sh.mu.Unlock()
	}
	return total
}
