// Package wal is the durable write-ahead operation journal of the
// AtomFS reproduction (DESIGN.md §14): an append-only log of spec-level
// records layered on the internal/block ramdisk, with per-record
// checksums, a group-commit batcher that coalesces concurrent committers
// behind one flush, dual-slot snapshot checkpoints with log truncation,
// and a recovery path that replays the surviving tail onto the last
// checkpoint.
//
// The paper's AtomFS proves linearizability on a ramdisk and says
// nothing about crashes. The journal extends the same refinement
// methodology across a crash: every record is an Aop (the abstract
// operation the monitor executed at the concrete operation's LP), so
// replaying the committed prefix IS running the specification — recovery
// lands, by construction, in a reachable abstract state, and the
// abstraction relation against a concrete tree rebuilt from it is
// checked explicitly (core.CompareStates).
package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
)

// ErrCrashed is returned by every device and log operation after the
// armed crash point has been reached: the "machine" is down, and nothing
// written afterwards reaches the store.
var ErrCrashed = errors.New("wal: device crashed")

// Device presents a block.Store as a flat, byte-addressed, durable
// space: logical byte i lives in the store block mapped for logical
// block i/block.Size. Blocks are materialized on first write; with a
// single writer and a fixed hint the store's allocation order is
// deterministic (block.TestDeterministicAllocOrder), so two identical
// runs produce byte-identical devices (TestDeviceReproducible).
// TruncateRange returns the blocks of a checkpointed log prefix to the
// store — the logical offset space keeps growing append-only while
// physical use stays bounded.
//
// Crash injection is byte-exact and temporal: CrashAt(k) arms the device
// so that only the first k bytes EVER WRITTEN (cumulative across all
// WriteAt calls, in call order) survive. The write that crosses the
// boundary is torn mid-call; every later write and sync fails with
// ErrCrashed. A cumulative write-stream offset, rather than a spatial
// one, is what lets one integer express the whole crash taxonomy:
// mid-record torn appends, a crash after an append but before its
// commit flush, and a crash inside a checkpoint or superblock write.
type Device struct {
	mu sync.Mutex
	// waiting counts appenders and flushers on their way into mu: the
	// checkpointer, which releases mu after every block, yields the CPU
	// only when one of them would otherwise wait behind its next block.
	waiting atomic.Int32
	store   *block.Store
	// blkmap maps logical block numbers to store blocks; an absent key
	// means not materialized. A map, not a slice indexed by block number:
	// the logical space only ever grows, and the table must cost what is
	// mapped now, not what was ever written. end is the logical space's
	// high-water mark in bytes, block-aligned.
	blkmap map[int64]block.Index
	end    int64
	// written is the cumulative number of bytes accepted across all
	// WriteAt calls; crashAt < 0 means never crash.
	written int64
	crashAt int64
	crashed bool
	// syncDelay simulates the latency of a real flush (fsync); the
	// group-commit benchmark sets it to make batching measurable.
	syncDelay time.Duration
	syncs     int64
	// marks records the cumulative written offset after each WriteAt
	// call — the write-call boundaries a crash fuzzer aims at — once
	// RecordMarks has armed it. Unarmed (every production device) it
	// stays nil: eight bytes per write, forever, is a leak.
	marks       []int64
	recordMarks bool
}

// NewDevice wraps store as a journal device. syncDelay is the simulated
// flush latency (0 for tests).
func NewDevice(store *block.Store, syncDelay time.Duration) *Device {
	return &Device{store: store, blkmap: map[int64]block.Index{}, crashAt: -1, syncDelay: syncDelay}
}

// CrashAt arms the crash point: only the first k cumulative written
// bytes survive. Must be called before the writes it is meant to cut.
func (d *Device) CrashAt(k int64) {
	d.mu.Lock()
	d.crashAt = k
	d.mu.Unlock()
}

// RecordMarks arms write-mark recording (see Marks) for the writes that
// follow.
func (d *Device) RecordMarks() {
	d.mu.Lock()
	d.recordMarks = true
	d.mu.Unlock()
}

// Crashed reports whether the armed crash point has been reached.
func (d *Device) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// Written returns the cumulative bytes written so far — the upper bound
// of meaningful crash offsets for a recorded run.
func (d *Device) Written() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.written
}

// Marks returns the cumulative write-stream offset after each WriteAt
// call since RecordMarks (nil if it was never called): the exact byte
// boundaries between journal writes, which the crash fuzzer perturbs by
// ±1 to synthesize torn and clean cuts.
func (d *Device) Marks() []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int64(nil), d.marks...)
}

// Syncs returns how many flushes completed — the denominator of the
// group-commit amortization claim.
func (d *Device) Syncs() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

// WriteAt writes p at logical byte offset off. Under an armed crash
// point the write may be torn: the surviving prefix is persisted and
// ErrCrashed returned.
func (d *Device) WriteAt(off int64, p []byte) error {
	d.lockWaiting()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	n := int64(len(p))
	if d.crashAt >= 0 && d.written+n > d.crashAt {
		n = d.crashAt - d.written
		if n < 0 {
			n = 0
		}
		d.crashed = true
	}
	if err := d.writeLocked(off, p[:n]); err != nil {
		return err
	}
	d.written += n
	if d.recordMarks {
		d.marks = append(d.marks, d.written)
	}
	if d.crashed {
		return ErrCrashed
	}
	return nil
}

func (d *Device) writeLocked(off int64, p []byte) error {
	for len(p) > 0 {
		lb := off / block.Size
		bo := int(off % block.Size)
		idx, err := d.materialize(lb)
		if err != nil {
			return err
		}
		n := copy(d.store.Data(idx)[bo:], p)
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// materialize returns the store block backing logical block lb,
// allocating one on first touch.
func (d *Device) materialize(lb int64) (block.Index, error) {
	if idx, ok := d.blkmap[lb]; ok {
		return idx, nil
	}
	idx, err := d.store.Alloc(0)
	if err != nil {
		return block.NoBlock, err
	}
	d.blkmap[lb] = idx
	if e := (lb + 1) * block.Size; e > d.end {
		d.end = e
	}
	return idx, nil
}

// ReadAt fills p from logical offset off; unmaterialized (or truncated)
// ranges read as zero, like a sparse disk. Reads never crash: recovery
// runs on the post-crash machine.
func (d *Device) ReadAt(off int64, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.readLocked(off, p)
	return nil
}

// readLocked is ReadAt with d.mu held: a sequence of them under one hold
// reads one instant of the device.
func (d *Device) readLocked(off int64, p []byte) {
	for len(p) > 0 {
		lb := off / block.Size
		bo := int(off % block.Size)
		n := block.Size - bo
		if n > len(p) {
			n = len(p)
		}
		if idx, ok := d.blkmap[lb]; ok {
			copy(p[:n], d.store.Data(idx)[bo:])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		off += int64(n)
	}
}

// Sync flushes pending writes (simulated: sleeps syncDelay) and fails if
// the device crashed — an acknowledged flush is the durability promise
// group commit hands to its tickets.
func (d *Device) Sync() error {
	d.lockWaiting()
	if d.crashed {
		d.mu.Unlock()
		return ErrCrashed
	}
	delay := d.syncDelay
	d.syncs++
	d.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return nil
}

// TruncateRange returns every logical block wholly inside [lo, hi) to
// the store's free lists and reports how many blocks were reclaimed.
// The log's physical truncation after a checkpoint: the offsets stay
// valid (they read as zero) but their storage is reusable. Ranges are
// block-granular on purpose — a partially covered block stays mapped.
func (d *Device) TruncateRange(lo, hi int64) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	freed := 0
	if hi > d.end {
		hi = d.end
	}
	for lb := (lo + block.Size - 1) / block.Size; (lb+1)*block.Size <= hi; lb++ {
		idx, ok := d.blkmap[lb]
		if !ok {
			continue
		}
		d.store.Free(idx, 0)
		delete(d.blkmap, lb)
		freed++
	}
	return freed
}

// lockWaiting takes mu, counted in waiting while it does.
func (d *Device) lockWaiting() {
	d.waiting.Add(1)
	d.mu.Lock()
	d.waiting.Add(-1)
}

// contended reports whether a writer or flusher is waiting for the device.
func (d *Device) contended() bool { return d.waiting.Load() > 0 }

// extent returns the end of the logical space ever written: every offset
// at or past it reads as zero.
func (d *Device) extent() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.end
}

// BlocksMapped returns how many logical blocks currently hold storage —
// the journal's physical footprint, which checkpoint truncation bounds.
func (d *Device) BlocksMapped() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.blkmap)
}

// Fingerprint hashes every materialized store block (FNV-1a over index
// and contents, visited in Store.Range's deterministic order):
// byte-reproducibility assertions compare fingerprints of two identical
// runs.
func (d *Device) Fingerprint() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	step := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	d.store.Range(func(idx block.Index, data []byte) bool {
		step(byte(idx))
		step(byte(idx >> 8))
		for _, b := range data {
			step(b)
		}
		return true
	})
	return h
}

func (d *Device) String() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return fmt.Sprintf("wal.Device{written=%d crashed=%v syncs=%d}", d.written, d.crashed, d.syncs)
}
