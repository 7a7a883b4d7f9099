package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/obs"
	"repro/internal/spec"
)

// On-device layout (DESIGN.md §14). All multi-byte integers are
// little-endian fixed width (the superblock and record headers must be
// scannable without a varint state machine).
//
//	[0,      4096)  superblock slot A
//	[4096,   8192)  superblock slot B
//	[8192,   ...)   append stream: records and checkpoint blobs
//
//	Record:      0xA7 | op u8 | seq u64 | plen u32 | payload | crc u32
//	Checkpoint:  0xC7 | seq u64 | plen u32 | payload | crc u32
//	Superblock:  "AWALSB1\0" | version u64 | ckptOff u64 | ckptLen u64 |
//	             ckptSeq u64 | logStart u64 | crc u32
//
// Every crc is IEEE CRC-32 over all preceding bytes of the structure, so
// a torn write — a prefix of the structure followed by zeros — is
// detected with overwhelming probability. The superblock is written to
// alternating slots (slot = version mod 2) and recovery takes the valid
// slot with the larger version: a crash mid-superblock leaves the other
// slot intact, so there is always a consistent (checkpoint, logStart)
// pair to recover from.
const (
	sbSlotSize = 4096
	logBase    = 2 * sbSlotSize

	recMagic  = 0xA7
	ckptMagic = 0xC7

	recHdrSize  = 1 + 1 + 8 + 4 // magic, op, seq, plen
	ckptHdrSize = 1 + 8 + 4     // magic, seq, plen
	crcSize     = 4

	// ckptChunk is the checkpoint encoder's write unit: a blob streams to
	// the device through one buffer of this size, so a checkpoint's
	// transient memory is the chunk, not the state.
	ckptChunk = 64 << 10

	// ckptLogRatio is the size half of the checkpoint cadence: the log
	// must have absorbed at least 1/ckptLogRatio of the previous blob's
	// bytes before the state is serialised again. It fixes three bounds at
	// once (DESIGN.md §14): journal bytes per logged byte <= 1 +
	// ckptLogRatio, replay tail <= state/ckptLogRatio, device footprint <=
	// (2 + 1/ckptLogRatio) x state.
	ckptLogRatio = 4
)

var sbMagic = [8]byte{'A', 'W', 'A', 'L', 'S', 'B', '1', 0}

// Config tunes a Log.
type Config struct {
	// CheckpointEvery is the minimum number of appended records between
	// snapshot checkpoints (0 = only explicit CheckpointNow calls). A
	// checkpoint is taken once this many records AND a quarter of the
	// previous checkpoint's bytes have been logged since it, so its cost
	// is amortised over what the log absorbed, not over the whole tree.
	CheckpointEvery int
	// NoGroup disables the group-commit batcher: every append flushes the
	// device inline before returning — the naive per-op durability
	// baseline the benchmark suite compares against.
	NoGroup bool
	// Obs receives journal counters; nil runs unobserved.
	Obs *obs.Registry
}

// Log is the append-only operation journal. Appends are serialized by an
// internal mutex (callers append inside their own critical sections, so
// conflicting operations are already ordered; the mutex orders the
// commutative rest); durability waits ride the group-commit batcher.
type Log struct {
	dev *Device
	cfg Config

	mu  sync.Mutex // append/checkpoint section
	end int64      // next append offset
	// seq is the seq of the last record written to the device. Stored
	// under mu, only after the record's WriteAt returned; loaded without
	// it by the flush leader, whose sync therefore covers every record up
	// to the value it read.
	seq atomic.Uint64
	// shadow is the journal's own abstract state: every appended record
	// applied in append order. By construction it equals the replay of
	// the whole log, which makes checkpoints (encoded from it) correct by
	// the same argument that makes replay correct. It also arms a cheap
	// divergence check: a record whose Aop fails against the shadow can
	// never have succeeded concretely in that order.
	shadow *spec.AFS
	// sinceCkpt counts records since the last checkpoint, whose blob was
	// ckptLen bytes and ended at logStart (both 0 before the first one);
	// version is the next superblock version to write. Everything in
	// [logBase, reclaimed) has gone back to the store, so a checkpoint
	// truncates from there and its cost does not grow with the log's age.
	sinceCkpt int
	ckptLen   int64
	logStart  int64
	version   uint64
	reclaimed int64
	// ckptBuf is the checkpoint encoder's chunk, allocated by the first
	// checkpoint and reused by every later one.
	ckptBuf []byte

	// Group commit: committers park on cond; one becomes the leader,
	// flushes the device once, and publishes durableSeq for the batch.
	// Wait never takes mu; Append and checkpoints take cmu inside mu,
	// which is why broken lives here and not under mu.
	cmu        sync.Mutex
	cond       *sync.Cond
	flushing   bool
	durableSeq uint64
	broken     error // sticky first device error (ErrCrashed)

	// Counters (always non-nil; a private registry when Config.Obs is).
	cAppends *obs.Counter
	cCommits *obs.Counter
	cBatched *obs.Counter
	cCkpts   *obs.Counter
	cTruncBl *obs.Counter
	hBatch   *obs.Histogram
}

// NewLog formats a fresh journal on dev (any prior contents are ignored;
// use Recover to read them first).
func NewLog(dev *Device, cfg Config) *Log {
	l := &Log{
		dev:       dev,
		cfg:       cfg,
		end:       logBase,
		logStart:  logBase,
		reclaimed: logBase,
		shadow:    spec.New(),
	}
	l.cond = sync.NewCond(&l.cmu)
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l.cAppends = reg.Counter("wal_appends_total")
	l.cCommits = reg.Counter("wal_commits_total")
	l.cBatched = reg.Counter("wal_batched_records_total")
	l.cCkpts = reg.Counter("wal_checkpoints_total")
	l.cTruncBl = reg.Counter("wal_truncated_blocks_total")
	l.hBatch = reg.Histogram("wal_batch_records")
	return l
}

// Ticket is one append's claim on durability: Wait blocks until a flush
// covering the record has completed (possibly performed by this caller
// as the batch leader) and returns nil, or returns ErrCrashed if the
// device died first.
type Ticket struct {
	l   *Log
	seq uint64
}

// Append journals one committed operation and returns its durability
// ticket. It MUST be called at the operation's linearization point,
// while the operation still holds the locks that ordered it against
// conflicting operations: that is what makes journal order a valid
// linearization order (see DESIGN.md §14). The payload is serialized
// immediately, so argument buffers may be reused after return.
func (l *Log) Append(op spec.Op, args spec.Args) (Ticket, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.Broken(); err != nil {
		return Ticket{}, err
	}
	seq := l.seq.Load() + 1
	if ret, _ := l.shadow.Apply(op, args); ret.Err != nil {
		// The caller's concrete operation succeeded; the same Aop failing
		// against the shadow means the journal's order diverged from the
		// linearization order — a bug worth failing loudly over.
		return Ticket{}, fmt.Errorf("wal: shadow divergence at seq %d: %s %s: %w",
			seq, op, args.String(), ret.Err)
	}
	rec := encodeRecord(op, seq, args)
	if err := l.dev.WriteAt(l.end, rec); err != nil {
		l.fail(err)
		return Ticket{}, err
	}
	l.seq.Store(seq)
	l.end += int64(len(rec))
	l.cAppends.Inc(0)
	t := Ticket{l: l, seq: seq}
	l.sinceCkpt++
	if l.cfg.NoGroup {
		if err := l.dev.Sync(); err != nil {
			l.fail(err)
			return Ticket{}, err
		}
		l.cCommits.Inc(0)
		l.cBatched.Inc(0)
		l.hBatch.Observe(0, 1)
		l.setDurable(seq)
	}
	if l.cfg.CheckpointEvery > 0 && l.sinceCkpt >= l.cfg.CheckpointEvery &&
		(l.end-l.logStart)*ckptLogRatio >= l.ckptLen {
		if err := l.checkpointLocked(); err != nil {
			l.fail(err)
			return Ticket{}, err
		}
	}
	return t, nil
}

func (l *Log) setDurable(seq uint64) {
	l.cmu.Lock()
	if seq > l.durableSeq {
		l.durableSeq = seq
	}
	l.cmu.Unlock()
	l.cond.Broadcast()
}

// fail latches the first device error and wakes every parked waiter.
func (l *Log) fail(err error) {
	l.cmu.Lock()
	if l.broken == nil {
		l.broken = err
	}
	l.cmu.Unlock()
	l.cond.Broadcast()
}

// Wait blocks until the record is durable. Concurrent waiters coalesce:
// the first to arrive becomes the flush leader, syncs the device once,
// and the whole batch — every record appended before the leader's cut —
// is published together. Late arrivals whose record the in-flight flush
// does not cover wait for the next round and one of them leads it.
func (t Ticket) Wait() error {
	l := t.l
	if l == nil {
		return nil // zero Ticket: journaling disabled
	}
	l.cmu.Lock()
	for {
		if l.durableSeq >= t.seq {
			l.cmu.Unlock()
			return nil
		}
		if l.broken != nil {
			err := l.broken
			l.cmu.Unlock()
			return err
		}
		if l.flushing {
			l.cond.Wait()
			continue
		}
		// Leader: flush once for everything appended so far.
		l.flushing = true
		prev := l.durableSeq
		l.cmu.Unlock()
		cut := l.seq.Load() // t.seq <= cut: our record was appended before Wait
		err := l.dev.Sync()
		l.cmu.Lock()
		l.flushing = false
		if err != nil {
			if l.broken == nil {
				l.broken = err
			}
			l.cmu.Unlock()
			l.cond.Broadcast()
			return err
		}
		if cut > l.durableSeq {
			l.durableSeq = cut
		}
		batch := int64(cut) - int64(prev)
		l.cmu.Unlock()
		l.cond.Broadcast()
		l.cCommits.Inc(0)
		if batch > 0 {
			l.cBatched.Add(0, uint64(batch))
			l.hBatch.Observe(0, batch)
		}
		return nil
	}
}

// CheckpointNow takes a snapshot checkpoint immediately.
func (l *Log) CheckpointNow() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.Broken(); err != nil {
		return err
	}
	if err := l.checkpointLocked(); err != nil {
		l.fail(err)
		return err
	}
	return nil
}

// checkpointLocked writes the shadow snapshot into the append stream,
// seals it with a superblock flip, and physically truncates the log
// prefix it supersedes. Called with l.mu held.
//
// The blob is streamed: spec.EncodeTree walks the shadow in place and
// the bytes pass through one chunk buffer, checksummed and written a
// chunk at a time, so a checkpoint copies the state once (into the
// device) and allocates nothing that grows with it.
//
// Crash safety: the blob is written and synced BEFORE the superblock
// that points at it, and the superblock goes to the slot the current
// generation is not using. A crash anywhere in between leaves the old
// superblock pointing at the old checkpoint and old logStart — and the
// bytes of the half-written new blob sit past the old log's records,
// where the replay scan stops at the first non-record byte.
func (l *Log) checkpointLocked() error {
	seq := l.seq.Load()
	plen := l.shadow.EncodedTreeSize(l.shadow.Root)
	if plen > math.MaxUint32 {
		return fmt.Errorf("wal: checkpoint payload of %d bytes does not fit the frame's 32-bit length", plen)
	}
	if l.ckptBuf == nil {
		l.ckptBuf = make([]byte, 0, ckptChunk)
	}
	ckptOff := l.end
	w := chunkWriter{dev: l.dev, off: ckptOff, buf: l.ckptBuf[:0]}
	var hdr [ckptHdrSize]byte
	hdr[0] = ckptMagic
	binary.LittleEndian.PutUint64(hdr[1:], seq)
	binary.LittleEndian.PutUint32(hdr[9:], uint32(plen))
	w.write(hdr[:])
	l.shadow.EncodeTree(l.shadow.Root, w.write)
	if err := w.finish(); err != nil {
		return err
	}
	if err := l.dev.Sync(); err != nil {
		return err
	}
	l.end = w.off
	blobLen := l.end - ckptOff

	l.version++
	sb := make([]byte, 0, len(sbMagic)+5*8+crcSize)
	sb = append(sb, sbMagic[:]...)
	sb = binary.LittleEndian.AppendUint64(sb, l.version)
	sb = binary.LittleEndian.AppendUint64(sb, uint64(ckptOff))
	sb = binary.LittleEndian.AppendUint64(sb, uint64(blobLen))
	sb = binary.LittleEndian.AppendUint64(sb, seq)
	sb = binary.LittleEndian.AppendUint64(sb, uint64(l.end))
	sb = binary.LittleEndian.AppendUint32(sb, crc32.ChecksumIEEE(sb))
	slot := int64(l.version%2) * sbSlotSize
	if err := l.dev.WriteAt(slot, sb); err != nil {
		return err
	}
	if err := l.dev.Sync(); err != nil {
		return err
	}
	// The checkpoint seals every record before it; their storage — and
	// the previous checkpoint's — is reclaimable. The superblock slots
	// below logBase are never truncated.
	l.cTruncBl.Add(0, uint64(l.dev.TruncateRange(l.reclaimed, ckptOff)))
	l.reclaimed = ckptOff &^ (block.Size - 1) // the block ckptOff is in stays mapped
	l.sinceCkpt = 0
	l.ckptLen, l.logStart = blobLen, l.end
	l.cCkpts.Inc(0)
	// A checkpoint makes everything up to its cut durable.
	l.setDurable(seq)
	return nil
}

// chunkWriter frames a streamed structure onto the device: bytes gather
// in buf and go out one full chunk per WriteAt, the running IEEE CRC-32
// folded over each chunk as it leaves; finish appends the checksum of
// everything written and flushes the rest. The first device error sticks
// and turns later writes into no-ops, so an encoder walk needs no abort
// path.
type chunkWriter struct {
	dev *Device
	off int64 // device offset of buf[0]
	buf []byte
	crc uint32
	err error
}

func (w *chunkWriter) write(p []byte) {
	for len(p) > 0 && w.err == nil {
		n := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf = w.buf[:len(w.buf)+n]
		p = p[n:]
		if len(w.buf) == cap(w.buf) {
			w.flush()
		}
	}
}

func (w *chunkWriter) flush() {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, w.buf)
	if w.err = w.dev.WriteAt(w.off, w.buf); w.err == nil {
		w.off += int64(len(w.buf))
		w.buf = w.buf[:0]
	}
}

func (w *chunkWriter) finish() error {
	var sum [crcSize]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Update(w.crc, crc32.IEEETable, w.buf))
	w.write(sum[:])
	if len(w.buf) > 0 && w.err == nil {
		w.flush()
	}
	return w.err
}

// LastSeq returns the seq of the last appended record.
func (l *Log) LastSeq() uint64 { return l.seq.Load() }

// DurableSeq returns the seq up to which records are known durable
// (covered by a completed flush).
func (l *Log) DurableSeq() uint64 {
	l.cmu.Lock()
	defer l.cmu.Unlock()
	return l.durableSeq
}

// Broken returns the sticky device error, if any (ErrCrashed after an
// armed crash point fired).
func (l *Log) Broken() error {
	l.cmu.Lock()
	defer l.cmu.Unlock()
	return l.broken
}

// ShadowKey returns the canonical key of the journal's shadow state —
// what a full replay of the log must reproduce.
func (l *Log) ShadowKey() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shadow.Key()
}

func encodeRecord(op spec.Op, seq uint64, args spec.Args) []byte {
	payload := spec.AppendArgs(nil, args)
	rec := make([]byte, 0, recHdrSize+len(payload)+crcSize)
	rec = append(rec, recMagic, byte(op))
	rec = binary.LittleEndian.AppendUint64(rec, seq)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
	return rec
}
