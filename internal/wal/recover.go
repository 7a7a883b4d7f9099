package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/obs"
	"repro/internal/spec"
)

// RecoveryInfo describes what recovery found and did.
type RecoveryInfo struct {
	// SuperblockVersion is the version of the superblock used (0 = no
	// valid superblock; recovery started from an empty state at logBase).
	SuperblockVersion uint64
	// CkptSeq is the seq the loaded checkpoint covered (0 = none).
	CkptSeq uint64
	// LastSeq is the seq of the last record accepted by the replay scan.
	LastSeq uint64
	// Replayed is how many tail records were applied on the checkpoint.
	Replayed int
	// StopOffset is the device offset at which the scan stopped (end of
	// log, a torn record, or garbage).
	StopOffset int64
}

func (i RecoveryInfo) String() string {
	return fmt.Sprintf("wal: recovered to seq %d (checkpoint %d + %d replayed records, sb v%d, scan stopped at %d)",
		i.LastSeq, i.CkptSeq, i.Replayed, i.SuperblockVersion, i.StopOffset)
}

// Recover reads the device and rebuilds the abstract state: the newest
// valid superblock selects a checkpoint, the checkpoint payload decodes
// to the base tree, and the record tail from logStart replays on top.
// The scan accepts records while magic, CRC, and seq continuity hold and
// stops at the first violation — the committed-prefix semantics torn
// writes get. The recovered state is checked for well-formedness
// (GoodAFS) before being returned; reg (optional) receives the
// wal_recoveries_total and wal_replayed_records_total counters.
//
// Recover is read-only: it never writes the device and may run on a
// crashed one.
func Recover(dev *Device, reg *obs.Registry) (*spec.AFS, RecoveryInfo, error) {
	var info RecoveryInfo
	if reg != nil {
		reg.Counter("wal_recoveries_total").Inc(0)
	}

	// Pick the newest valid superblock of the two slots.
	var (
		best    []byte
		bestVer uint64
	)
	for slot := int64(0); slot < 2; slot++ {
		sb := make([]byte, len(sbMagic)+5*8+crcSize)
		if err := dev.ReadAt(slot*sbSlotSize, sb); err != nil {
			return nil, info, err
		}
		if string(sb[:len(sbMagic)]) != string(sbMagic[:]) {
			continue
		}
		body, sum := sb[:len(sb)-crcSize], binary.LittleEndian.Uint32(sb[len(sb)-crcSize:])
		if crc32.ChecksumIEEE(body) != sum {
			continue
		}
		ver := binary.LittleEndian.Uint64(sb[len(sbMagic):])
		if ver > bestVer {
			best, bestVer = sb, ver
		}
	}

	afs := spec.New()
	logStart := int64(logBase)
	if best != nil {
		f := best[len(sbMagic)+8:]
		ckptOff := int64(binary.LittleEndian.Uint64(f[0:8]))
		ckptLen := int64(binary.LittleEndian.Uint64(f[8:16]))
		ckptSeq := binary.LittleEndian.Uint64(f[16:24])
		logStart = int64(binary.LittleEndian.Uint64(f[24:32]))
		base, err := readCheckpoint(dev, ckptOff, ckptLen, ckptSeq)
		if err != nil {
			// A sealed superblock pointing at a bad checkpoint is real
			// corruption, not a torn tail: fail recovery rather than
			// silently dropping committed state.
			return nil, info, fmt.Errorf("wal: checkpoint at %d (seq %d): %w", ckptOff, ckptSeq, err)
		}
		afs = base
		info.SuperblockVersion = bestVer
		info.CkptSeq = ckptSeq
		info.LastSeq = ckptSeq
	}

	// Replay the tail.
	off := logStart
	seq := info.LastSeq
	for {
		op, args, recLen, ok := readRecord(dev, off, seq+1)
		if !ok {
			break
		}
		ret, _ := afs.Apply(op, args)
		if ret.Err != nil {
			// Journal order is a linearization order, so a journaled Aop
			// re-fails only if the log (or checkpoint) is corrupt in a way
			// the checksums missed. Surface it; the crash fuzzer treats
			// this as a finding.
			return nil, info, fmt.Errorf("wal: replay of seq %d (%s %s) failed: %w",
				seq+1, op, args.String(), ret.Err)
		}
		seq++
		off += recLen
		info.Replayed++
	}
	info.LastSeq = seq
	info.StopOffset = off
	if reg != nil {
		reg.Counter("wal_replayed_records_total").Add(0, uint64(info.Replayed))
	}

	if err := afs.GoodAFS(); err != nil {
		return nil, info, fmt.Errorf("wal: recovered state ill-formed: %w", err)
	}
	return afs, info, nil
}

func readCheckpoint(dev *Device, off, length int64, wantSeq uint64) (*spec.AFS, error) {
	// The length comes from a CRC-sealed superblock and is bounded by
	// what the device holds: a state of any size that was written can be
	// read back.
	if ext := dev.extent(); length < ckptHdrSize+crcSize || off < logBase || length > ext-off {
		return nil, fmt.Errorf("implausible extent [%d, +%d) on a device of %d bytes", off, length, ext)
	}
	blob := make([]byte, length)
	if err := dev.ReadAt(off, blob); err != nil {
		return nil, err
	}
	if blob[0] != ckptMagic {
		return nil, fmt.Errorf("bad magic %#x", blob[0])
	}
	body, sum := blob[:length-crcSize], binary.LittleEndian.Uint32(blob[length-crcSize:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("checksum mismatch")
	}
	seq := binary.LittleEndian.Uint64(blob[1:9])
	if seq != wantSeq {
		return nil, fmt.Errorf("seq %d, superblock says %d", seq, wantSeq)
	}
	plen := int64(binary.LittleEndian.Uint32(blob[9:13]))
	if ckptHdrSize+plen+crcSize != length {
		return nil, fmt.Errorf("payload length %d inconsistent with blob length %d", plen, length)
	}
	sub, rest, err := spec.DecodeSubTree(blob[ckptHdrSize : ckptHdrSize+plen])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing payload bytes", len(rest))
	}
	return spec.FromSubTree(sub)
}

// readRecord scans one record at off, returning ok=false at anything
// that is not a whole, checksummed, seq-continuous record. The claimed
// payload length is bounded by the device's written extent, so garbage
// cannot induce an allocation larger than the log itself, while a record
// of any size that was written (a file.MaxSize Write, a large attach
// subtree) scans back; the CRC rejects the rest.
func readRecord(dev *Device, off int64, wantSeq uint64) (spec.Op, spec.Args, int64, bool) {
	hdr := make([]byte, recHdrSize)
	if dev.ReadAt(off, hdr) != nil || hdr[0] != recMagic {
		return 0, spec.Args{}, 0, false
	}
	op := spec.Op(hdr[1])
	seq := binary.LittleEndian.Uint64(hdr[2:10])
	plen := int64(binary.LittleEndian.Uint32(hdr[10:14]))
	if seq != wantSeq || recHdrSize+plen+crcSize > dev.extent()-off {
		return 0, spec.Args{}, 0, false
	}
	rec := make([]byte, recHdrSize+plen+crcSize)
	if dev.ReadAt(off, rec) != nil {
		return 0, spec.Args{}, 0, false
	}
	body := rec[:len(rec)-crcSize]
	sum := binary.LittleEndian.Uint32(rec[len(rec)-crcSize:])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, spec.Args{}, 0, false
	}
	args, rest, err := spec.DecodeArgs(rec[recHdrSize : recHdrSize+plen])
	if err != nil || len(rest) != 0 {
		return 0, spec.Args{}, 0, false
	}
	return op, args, int64(len(rec)), true
}
