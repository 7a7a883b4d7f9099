package wal

import (
	"testing"

	"repro/internal/spec"
)

// The journal's two single-layer costs (ROADMAP item 4: per-layer numbers
// live as `go test -bench` next to the code; bench/ owns end to end):
//
//	go test -run '^$' -bench . -benchmem ./internal/wal

// BenchmarkCheckpoint4MiB is one full checkpoint — count, stream, two
// syncs, superblock, truncate — of a state the size of the end-to-end
// benchmark's per-volume population: 16 directories x 64 files x 4 KiB.
func BenchmarkCheckpoint4MiB(b *testing.B) {
	l := NewLog(newBigDev(64<<20), Config{})
	fillState(b, l, 1024, 4096)
	if err := l.CheckpointNow(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(l.ckptLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.CheckpointNow(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendWait is one record's own cost: shadow apply, encode,
// device write, and an uncontended group-commit flush — a 1 KiB overwrite
// of a one-file state, whose checkpoints (they keep the device bounded)
// amortise to nothing.
func BenchmarkAppendWait(b *testing.B) {
	l := NewLog(newBigDev(64<<20), Config{CheckpointEvery: 4096})
	if _, err := l.Append(spec.OpMknod, spec.Args{Path: "/f"}); err != nil {
		b.Fatal(err)
	}
	args := spec.Args{Path: "/f", Data: make([]byte, 1024)}
	b.SetBytes(int64(len(args.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, err := l.Append(spec.OpWrite, args)
		if err != nil {
			b.Fatal(err)
		}
		if err := tk.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointCut is the part of a checkpoint an Append pays under
// the append mutex — copy-on-write snapshot, size pass, reservation
// write — on BenchmarkCheckpoint4MiB's state. The seal runs off the timer.
func BenchmarkCheckpointCut(b *testing.B) {
	l := NewLog(newBigDev(64<<20), Config{})
	fillState(b, l, 1024, 4096)
	if err := l.CheckpointNow(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.mu.Lock()
		err := l.cutLocked()
		l.mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := l.Settle(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
