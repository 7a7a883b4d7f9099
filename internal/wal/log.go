package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
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
//	[8192,   ...)   append stream: records, and reservations each followed
//	                by the checkpoint blob it reserves
//
//	Record:      0xA7 | op u8 | seq u64 | plen u32 | payload | crc u32
//	Reservation: 0xB7 | seq u64 | blobLen u64 | crc u32
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
//
// A checkpoint is cut in the append stream and sealed beside it: the cut
// writes a reservation for the blob's blobLen bytes and later records go
// past them, while the seal fills the extent and then flips the
// superblock. A replay scan that meets a reservation for the seq it has
// reached skips the extent, sealed or not, and reads on.
const (
	sbSlotSize = 4096
	logBase    = 2 * sbSlotSize

	recMagic  = 0xA7
	ckptMagic = 0xC7

	recHdrSize  = 1 + 1 + 8 + 4 // magic, op, seq, plen
	ckptHdrSize = 1 + 8 + 4     // magic, seq, plen
	crcSize     = 4
	resSize     = 1 + 8 + 8 + crcSize // magic, seq, blobLen, crc

	resMagic = 0xB7

	// truncBatch bounds the blocks one TruncateRange call of the
	// checkpointer frees, so the device lock is never held for a whole
	// superseded prefix.
	truncBatch = 64

	// ckptChunk is the checkpoint encoder's buffer: a blob streams to the
	// device through one buffer of this size, so a checkpoint's transient
	// memory is the chunk, not the state. It leaves in block-sized writes.
	ckptChunk = 64 << 10

	// ckptLogRatio is the size half of the checkpoint cadence: the log
	// must have absorbed at least 1/ckptLogRatio of the previous blob's
	// bytes before the state is serialised again. It fixes three bounds at
	// once (DESIGN.md §14): journal bytes per logged byte <= 1 +
	// ckptLogRatio, replay tail <= state/ckptLogRatio, device footprint <=
	// (2 + 1/ckptLogRatio) x state + CheckpointEvery records.
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
	// Obs receives journal counters; nil runs unobserved.
	Obs *obs.Registry
}

// Log is the append-only operation journal. Appends are serialized by an
// internal mutex (callers append inside their own critical sections, so
// conflicting operations are already ordered; the mutex orders the
// commutative rest); durability waits ride the group-commit batcher.
// Checkpoints are encoded and sealed by a goroutine of their own, at most
// one at a time, which exits when its seal is done.
type Log struct {
	dev *Device
	cfg Config

	mu  sync.Mutex // append section and checkpoint cuts
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
	// sinceCkpt counts records since the last cut, whose blob is ckptLen
	// bytes and ends at logStart (0 and logBase before the first one).
	sinceCkpt int
	ckptLen   int64
	logStart  int64
	// seal is the checkpoint cut and not yet reaped (nil when none); its
	// snapshot shares the shadow's nodes until then. snapIndex is the
	// snapshot's inode map, refilled at every cut.
	seal      *seal
	snapIndex map[spec.Inum]*spec.ANode

	// Owned by the checkpointer. Only one seal runs at a time and the
	// next cut waits for it, so these pass from seal to seal without a
	// lock. version is the last superblock version written; everything in
	// [logBase, reclaimed) has gone back to the store, so a seal truncates
	// from there and its cost does not grow with the log's age; ckptBuf
	// is the encoder's chunk, allocated by the first seal and reused.
	version   uint64
	reclaimed int64
	ckptBuf   []byte
	// yield runs between the blob's block writes: it gives the CPU to a
	// writer waiting for the device (yieldToWriters), or in tests it is a
	// step that appends records while the seal is parked.
	yield func()

	// Group commit: committers park on cond; one becomes the leader,
	// flushes the device once, and publishes durableSeq for the batch.
	// Wait never takes mu; Append takes cmu inside mu and the
	// checkpointer takes it without mu, which is why broken lives here.
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

// seal is one checkpoint between its cut and its reaping: a frozen
// snapshot of the shadow at seq, to be encoded into the blobLen bytes at
// blobOff that the reservation at resOff holds for it. done closes when
// the checkpointer is finished, with err its outcome.
type seal struct {
	snap    *spec.AFS
	seq     uint64
	plen    int64
	resOff  int64
	blobOff int64
	blobLen int64
	done    chan struct{}
	err     error
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
		snapIndex: map[spec.Inum]*spec.ANode{},
	}
	l.yield = l.yieldToWriters
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
	// Reap a finished seal. While one is in flight, at most
	// CheckpointEvery records may land past its reservation: the next
	// append waits for it. A seal's error is the log's as well, which
	// Broken returns below.
	if s := l.seal; s != nil && (s.sealed() || l.sinceCkpt >= l.cfg.CheckpointEvery) {
		_ = l.settleLocked()
	}
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
	if l.cfg.CheckpointEvery > 0 && l.sinceCkpt >= l.cfg.CheckpointEvery &&
		(l.end-l.logStart)*ckptLogRatio >= l.ckptLen {
		if err := l.cutLocked(); err != nil {
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

// CheckpointNow cuts a checkpoint and waits for its seal, returning the
// seal's error.
func (l *Log) CheckpointNow() error {
	l.mu.Lock()
	err := l.Broken()
	if err == nil {
		err = l.cutLocked()
	}
	s := l.seal
	l.mu.Unlock()
	if err != nil {
		l.fail(err)
		return err
	}
	<-s.done
	return s.err
}

// Settle waits until no checkpoint is in flight and returns the error of
// the seal it waited for, if any. A caller that needs the device's write
// stream to be a function of its own calls — the crash fuzzer — settles
// after each one.
func (l *Log) Settle() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.settleLocked()
}

// settleLocked waits for the in-flight seal, if any, and retires it: its
// snapshot is no longer read, so the shadow stops copying on write. It
// returns the seal's error. Called with l.mu held.
func (l *Log) settleLocked() error {
	s := l.seal
	if s == nil {
		return nil
	}
	<-s.done
	l.seal = nil
	l.shadow.Unshare()
	return s.err
}

// sealed reports whether the checkpointer is done with s.
func (s *seal) sealed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// cutLocked is the append-side half of a checkpoint: after the in-flight
// seal, if any, it snapshots the shadow copy-on-write, sizes the blob,
// writes the reservation that holds the blob's extent at l.end, moves
// l.end past the extent, and hands the snapshot to a checkpointer
// goroutine (sealCheckpoint). Called with l.mu held. It encodes nothing:
// its cost is one map copy, one size walk and one small write.
func (l *Log) cutLocked() error {
	if err := l.settleLocked(); err != nil {
		return err
	}
	seq := l.seq.Load()
	snap := l.shadow.Snapshot(l.snapIndex)
	plen := snap.EncodedTreeSize(snap.Root)
	if plen > math.MaxUint32 {
		l.shadow.Unshare()
		return fmt.Errorf("wal: checkpoint payload of %d bytes does not fit the frame's 32-bit length", plen)
	}
	s := &seal{
		snap:    snap,
		seq:     seq,
		plen:    plen,
		resOff:  l.end,
		blobOff: l.end + resSize,
		blobLen: ckptHdrSize + plen + crcSize,
		done:    make(chan struct{}),
	}
	var res [resSize]byte
	res[0] = resMagic
	binary.LittleEndian.PutUint64(res[1:], seq)
	binary.LittleEndian.PutUint64(res[9:], uint64(s.blobLen))
	binary.LittleEndian.PutUint32(res[17:], crc32.ChecksumIEEE(res[:17]))
	if err := l.dev.WriteAt(s.resOff, res[:]); err != nil {
		l.shadow.Unshare()
		return err
	}
	l.end = s.blobOff + s.blobLen
	l.sinceCkpt = 0
	l.ckptLen, l.logStart = s.blobLen, l.end
	l.seal = s
	l.cCkpts.Inc(0)
	go l.sealCheckpoint(s)
	return nil
}

// sealCheckpoint runs on the checkpointer goroutine: it fills the
// reserved extent, flips the superblock, truncates the prefix the new
// checkpoint supersedes, and exits. A device error latches the log's
// sticky error, which the next Append or Wait returns.
func (l *Log) sealCheckpoint(s *seal) {
	s.err = l.writeCheckpoint(s)
	if s.err != nil {
		l.fail(s.err)
	}
	clear(s.snap.Imap) // the map is reused; its references would pin superseded nodes
	close(s.done)
}

// writeCheckpoint streams s's snapshot into its reserved extent, seals it
// with a superblock flip, and truncates the log prefix it supersedes.
//
// The blob is streamed: spec.EncodeTree walks the frozen snapshot and
// the bytes pass through one chunk buffer, checksummed and written a
// block at a time with a yield between blocks, so a checkpoint copies the
// state once (into the device), allocates nothing that grows with it,
// and holds the device lock for one block at most while records append
// past the extent.
//
// Crash safety: the blob is written and synced BEFORE the superblock
// that points at it, and the superblock goes to the slot the current
// generation is not using. A crash anywhere in between leaves the old
// superblock pointing at the old checkpoint and old logStart, and the
// replay scan from there crosses the reservation — skipping the
// half-written blob — to the records appended after the cut.
func (l *Log) writeCheckpoint(s *seal) error {
	if l.ckptBuf == nil {
		l.ckptBuf = make([]byte, 0, ckptChunk)
	}
	w := chunkWriter{dev: l.dev, off: s.blobOff, buf: l.ckptBuf[:0], yield: l.yield}
	var hdr [ckptHdrSize]byte
	hdr[0] = ckptMagic
	binary.LittleEndian.PutUint64(hdr[1:], s.seq)
	binary.LittleEndian.PutUint32(hdr[9:], uint32(s.plen))
	w.write(hdr[:])
	s.snap.EncodeTree(s.snap.Root, w.write)
	if err := w.finish(); err != nil {
		return err
	}
	if w.off != s.blobOff+s.blobLen {
		return fmt.Errorf("wal: checkpoint at seq %d encoded %d bytes into a %d-byte reservation",
			s.seq, w.off-s.blobOff, s.blobLen)
	}
	if err := l.dev.Sync(); err != nil {
		return err
	}

	l.version++
	var sb [len(sbMagic) + 5*8 + crcSize]byte
	copy(sb[:], sbMagic[:])
	f := sb[len(sbMagic):]
	binary.LittleEndian.PutUint64(f[0:], l.version)
	binary.LittleEndian.PutUint64(f[8:], uint64(s.blobOff))
	binary.LittleEndian.PutUint64(f[16:], uint64(s.blobLen))
	binary.LittleEndian.PutUint64(f[24:], s.seq)
	binary.LittleEndian.PutUint64(f[32:], uint64(s.blobOff+s.blobLen))
	binary.LittleEndian.PutUint32(f[40:], crc32.ChecksumIEEE(sb[:len(sb)-crcSize]))
	slot := int64(l.version%2) * sbSlotSize
	if err := l.dev.WriteAt(slot, sb[:]); err != nil {
		return err
	}
	if err := l.dev.Sync(); err != nil {
		return err
	}
	// A checkpoint makes everything up to its cut durable.
	l.setDurable(s.seq)
	// The checkpoint seals every record before its reservation; their
	// storage — and the previous checkpoint's — is reclaimable, a batch
	// of blocks at a time. The superblock slots below logBase are never
	// truncated, and the block the reservation starts in stays mapped.
	for lo := l.reclaimed; lo < s.resOff; lo += truncBatch * block.Size {
		l.cTruncBl.Add(0, uint64(l.dev.TruncateRange(lo, min(lo+truncBatch*block.Size, s.resOff))))
		runtime.Gosched()
	}
	l.reclaimed = s.resOff &^ (block.Size - 1)
	return nil
}

// yieldToWriters lets a record append or a flush that is waiting for the
// device run before the checkpointer's next block. A yield per block
// regardless costs the seal a scheduler round trip per 4 KiB, which
// stretches it and makes appends meet the back-pressure more often.
func (l *Log) yieldToWriters() {
	if l.dev.contended() {
		runtime.Gosched()
	}
}

// chunkWriter frames a streamed structure onto the device: bytes gather
// in buf and go out once it is full, the running IEEE CRC-32 folded over
// each chunk as it leaves, in one WriteAt per device block and a yield
// between blocks; finish appends the checksum of everything written and
// flushes the rest. The first device error sticks and turns later writes
// into no-ops, so an encoder walk needs no abort path.
type chunkWriter struct {
	dev   *Device
	off   int64 // device offset of buf[0]
	buf   []byte
	crc   uint32
	err   error
	yield func()
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
	for p := w.buf; len(p) > 0 && w.err == nil; {
		n := min(int64(len(p)), block.Size-w.off%block.Size)
		if w.err = w.dev.WriteAt(w.off, p[:n]); w.err == nil {
			w.off += n
			p = p[n:]
			w.yield()
		}
	}
	w.buf = w.buf[:0]
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

// encodeRecord frames one record in a single buffer sized up front:
// header, arguments and checksum are encoded in place, one allocation.
func encodeRecord(op spec.Op, seq uint64, args spec.Args) []byte {
	rec := make([]byte, recHdrSize, recHdrSize+spec.ArgsSize(args)+crcSize)
	rec[0], rec[1] = recMagic, byte(op)
	binary.LittleEndian.PutUint64(rec[2:], seq)
	rec = spec.AppendArgs(rec, args)
	binary.LittleEndian.PutUint32(rec[10:], uint32(len(rec)-recHdrSize))
	return binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
}
