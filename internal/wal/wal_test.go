package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/file"
	"repro/internal/fserr"
	"repro/internal/obs"
	"repro/internal/spec"
)

func newDev(t *testing.T) *Device {
	t.Helper()
	return NewDevice(block.NewStore(4096), 0)
}

type step struct {
	op   spec.Op
	args spec.Args
}

// walScript is a deterministic all-succeeding op sequence covering every
// mutating op kind the journal will see, including the cross-volume
// subtree payloads (OpDetach/OpAttach).
func walScript() []step {
	sub := &spec.SubTree{Kind: spec.KindDir, Children: map[string]*spec.SubTree{
		"inner": {Kind: spec.KindFile, Data: []byte("carried")},
	}}
	return []step{
		{spec.OpMkdir, spec.Args{Path: "/d"}},
		{spec.OpMknod, spec.Args{Path: "/d/f"}},
		{spec.OpWrite, spec.Args{Path: "/d/f", Off: 0, Data: []byte("hello world")}},
		{spec.OpMkdir, spec.Args{Path: "/e"}},
		{spec.OpRename, spec.Args{Path: "/d/f", Path2: "/e/g"}},
		{spec.OpWrite, spec.Args{Path: "/e/g", Off: 5, Data: []byte("-patch")}},
		{spec.OpTruncate, spec.Args{Path: "/e/g", Off: 8}},
		{spec.OpAttach, spec.Args{Path: "/d/moved", Sub: sub}},
		{spec.OpMknod, spec.Args{Path: "/d/moved/sibling"}},
		{spec.OpDetach, spec.Args{Path: "/d/moved"}},
		{spec.OpMkdir, spec.Args{Path: "/d/x"}},
		{spec.OpRmdir, spec.Args{Path: "/d/x"}},
		{spec.OpMknod, spec.Args{Path: "/gone"}},
		{spec.OpUnlink, spec.Args{Path: "/gone"}},
		{spec.OpMkdir, spec.Args{Path: "/tail"}},
	}
}

// goldenKeys returns the reference state key after each prefix of the
// script: goldenKeys()[i] is the state after i ops (index 0 = empty).
func goldenKeys(t *testing.T, script []step) []string {
	t.Helper()
	ref := spec.New()
	keys := []string{ref.Key()}
	for i, s := range script {
		if ret, _ := ref.Apply(s.op, s.args); ret.Err != nil {
			t.Fatalf("golden step %d (%s): %v", i, s.op, ret.Err)
		}
		keys = append(keys, ref.Key())
	}
	return keys
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dev := newDev(t)
	reg := obs.NewRegistry()
	l := NewLog(dev, Config{Obs: reg})
	script := walScript()
	keys := goldenKeys(t, script)

	for i, s := range script {
		tk, err := l.Append(s.op, s.args)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	if got := l.DurableSeq(); got != uint64(len(script)) {
		t.Fatalf("durableSeq = %d, want %d", got, len(script))
	}

	afs, info, err := Recover(dev, reg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.LastSeq != uint64(len(script)) || info.Replayed != len(script) || info.CkptSeq != 0 {
		t.Fatalf("info = %+v", info)
	}
	if afs.Key() != keys[len(script)] {
		t.Fatalf("recovered key mismatch:\n%s\n%s", afs.Key(), keys[len(script)])
	}
	if afs.Key() != l.ShadowKey() {
		t.Fatal("recovered state diverges from shadow")
	}
	if reg.Counter("wal_appends_total").Value() != uint64(len(script)) {
		t.Fatal("wal_appends_total not counted")
	}
	if reg.Counter("wal_recoveries_total").Value() != 1 {
		t.Fatal("wal_recoveries_total not counted")
	}
	if reg.Counter("wal_replayed_records_total").Value() != uint64(len(script)) {
		t.Fatal("wal_replayed_records_total not counted")
	}
	if info.String() == "" {
		t.Fatal("empty info string")
	}
}

func TestRecoverEmptyDevice(t *testing.T) {
	afs, info, err := Recover(newDev(t), nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.LastSeq != 0 || info.Replayed != 0 || info.SuperblockVersion != 0 {
		t.Fatalf("info = %+v", info)
	}
	if afs.Key() != spec.New().Key() {
		t.Fatal("empty recovery is not the empty state")
	}
}

func TestNoGroupInlineDurability(t *testing.T) {
	dev := newDev(t)
	l := NewLog(dev, Config{NoGroup: true})
	if _, err := l.Append(spec.OpMkdir, spec.Args{Path: "/a"}); err != nil {
		t.Fatalf("append: %v", err)
	}
	// Durable without any Wait: NoGroup syncs inline.
	if l.DurableSeq() != 1 {
		t.Fatalf("durableSeq = %d, want 1", l.DurableSeq())
	}
	if dev.Syncs() != 1 {
		t.Fatalf("syncs = %d, want 1", dev.Syncs())
	}
}

func TestGroupCommitCoalesces(t *testing.T) {
	// A measurable sync latency makes concurrent committers pile up
	// behind the in-flight flush, so the follower batches are real.
	dev := NewDevice(block.NewStore(4096), 2*time.Millisecond)
	reg := obs.NewRegistry()
	l := NewLog(dev, Config{Obs: reg})

	const writers, perWriter = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				name := string(rune('a'+w)) + string(rune('0'+i))
				tk, err := l.Append(spec.OpMknod, spec.Args{Path: "/" + name})
				if err != nil {
					errs <- err
					return
				}
				if err := tk.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("writer: %v", err)
	}

	total := int64(writers * perWriter)
	if dev.Syncs() >= total {
		t.Fatalf("group commit did not coalesce: %d syncs for %d records", dev.Syncs(), total)
	}
	if got := l.DurableSeq(); got != uint64(total) {
		t.Fatalf("durableSeq = %d, want %d", got, total)
	}
	if c := reg.Counter("wal_commits_total").Value(); c == 0 || int64(c) != dev.Syncs() {
		t.Fatalf("wal_commits_total = %d, syncs = %d", c, dev.Syncs())
	}
	if b := reg.Counter("wal_batched_records_total").Value(); b != uint64(total) {
		t.Fatalf("wal_batched_records_total = %d, want %d", b, total)
	}

	afs, info, err := Recover(dev, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.LastSeq != uint64(total) {
		t.Fatalf("recovered %d records, want %d", info.LastSeq, total)
	}
	if afs.Key() != l.ShadowKey() {
		t.Fatal("recovered state diverges from shadow")
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dev := newDev(t)
	reg := obs.NewRegistry()
	l := NewLog(dev, Config{CheckpointEvery: 4, Obs: reg})
	script := walScript()
	keys := goldenKeys(t, script)

	for i, s := range script {
		if _, err := l.Append(s.op, s.args); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if reg.Counter("wal_checkpoints_total").Value() == 0 {
		t.Fatal("no automatic checkpoints")
	}
	if err := l.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// A checkpoint makes the whole log durable without any Wait.
	if l.DurableSeq() != uint64(len(script)) {
		t.Fatalf("durableSeq = %d after checkpoint", l.DurableSeq())
	}

	afs, info, err := Recover(dev, reg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.CkptSeq != uint64(len(script)) || info.Replayed != 0 {
		t.Fatalf("info = %+v, want pure-checkpoint recovery", info)
	}
	if info.SuperblockVersion == 0 {
		t.Fatal("no superblock used")
	}
	if afs.Key() != keys[len(script)] {
		t.Fatal("recovered key mismatch after checkpoints")
	}

	// Physical truncation: the device's footprint must stay small even
	// after many more checkpointed records (the pre-checkpoint prefix is
	// returned to the store).
	before := dev.BlocksMapped()
	for i := 0; i < 200; i++ {
		name := "/tail/n" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i%7))
		if _, err := l.Append(spec.OpMknod, spec.Args{Path: name}); err != nil {
			// Name collisions would make the shadow reject; keep names unique.
			t.Fatalf("append %d (%s): %v", i, name, err)
		}
	}
	if reg.Counter("wal_truncated_blocks_total").Value() == 0 {
		t.Fatal("checkpoints reclaimed no blocks")
	}
	after := dev.BlocksMapped()
	if after > before+64 {
		t.Fatalf("footprint grew unbounded: %d -> %d blocks", before, after)
	}
	afs2, _, err := Recover(dev, nil)
	if err != nil {
		t.Fatalf("recover after growth: %v", err)
	}
	if afs2.Key() != l.ShadowKey() {
		t.Fatal("post-truncation recovery diverges from shadow")
	}
}

func TestShadowDivergenceRejected(t *testing.T) {
	l := NewLog(newDev(t), Config{})
	if _, err := l.Append(spec.OpMkdir, spec.Args{Path: "/a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(spec.OpMkdir, spec.Args{Path: "/a"}); err == nil {
		t.Fatal("duplicate mkdir accepted by shadow")
	}
	// The journal itself is not broken by a caller-side divergence.
	if err := l.Broken(); err != nil {
		t.Fatalf("broken: %v", err)
	}
	if _, err := l.Append(spec.OpMknod, spec.Args{Path: "/a/f"}); err != nil {
		t.Fatalf("append after divergence: %v", err)
	}
}

// runToCrash replays the script on a fresh log over dev until the device
// dies (or the script ends), returning the highest seq acknowledged
// durable. ckptEvery exercises crash-during-checkpoint paths.
func runToCrash(t *testing.T, dev *Device, script []step, ckptEvery int) (acked uint64) {
	t.Helper()
	l := NewLog(dev, Config{CheckpointEvery: ckptEvery})
	for _, s := range script {
		tk, err := l.Append(s.op, s.args)
		if err != nil {
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("append: %v", err)
			}
			return acked
		}
		if err := tk.Wait(); err != nil {
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("wait: %v", err)
			}
			return acked
		}
		acked = tk.seq
	}
	return acked
}

// TestCrashEveryByte is the exhaustive single-package crash sweep: for
// every cumulative write-stream offset k (every possible torn point,
// including mid-record, post-append/pre-flush, mid-checkpoint and
// mid-superblock cuts), crash the run at k and require recovery to land
// in a golden prefix state no older than what was acknowledged durable.
func TestCrashEveryByte(t *testing.T) {
	script := walScript()
	keys := goldenKeys(t, script)
	for _, ckptEvery := range []int{0, 3} {
		// Dry run to learn the write extent.
		dry := newDev(t)
		runToCrash(t, dry, script, ckptEvery)
		total := dry.Written()
		if total == 0 {
			t.Fatal("dry run wrote nothing")
		}
		for k := int64(0); k <= total; k++ {
			dev := newDev(t)
			dev.CrashAt(k)
			acked := runToCrash(t, dev, script, ckptEvery)
			afs, info, err := Recover(dev, nil)
			if err != nil {
				t.Fatalf("ckptEvery=%d crash=%d: recover: %v", ckptEvery, k, err)
			}
			if info.LastSeq < acked {
				t.Fatalf("ckptEvery=%d crash=%d: durability violation: acked seq %d, recovered seq %d",
					ckptEvery, k, acked, info.LastSeq)
			}
			if int(info.LastSeq) >= len(keys) {
				t.Fatalf("ckptEvery=%d crash=%d: recovered impossible seq %d", ckptEvery, k, info.LastSeq)
			}
			if afs.Key() != keys[info.LastSeq] {
				t.Fatalf("ckptEvery=%d crash=%d: recovered state is not the seq-%d golden prefix",
					ckptEvery, k, info.LastSeq)
			}
		}
	}
}

func TestDeviceCrashSemantics(t *testing.T) {
	dev := newDev(t)
	dev.RecordMarks()
	dev.CrashAt(5)
	if err := dev.WriteAt(0, []byte("abc")); err != nil {
		t.Fatalf("pre-crash write: %v", err)
	}
	// This write crosses the boundary: 2 bytes survive, then ErrCrashed.
	if err := dev.WriteAt(3, []byte("defg")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crossing write: %v", err)
	}
	if !dev.Crashed() {
		t.Fatal("not crashed")
	}
	if err := dev.WriteAt(100, []byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatal("post-crash write accepted")
	}
	if err := dev.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatal("post-crash sync accepted")
	}
	// Reads still work and see exactly the surviving prefix.
	got := make([]byte, 8)
	if err := dev.ReadAt(0, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got[:5]) != "abcde" || got[5] != 0 || got[6] != 0 {
		t.Fatalf("surviving bytes = %q", got)
	}
	if dev.Written() != 5 {
		t.Fatalf("written = %d", dev.Written())
	}
	if len(dev.Marks()) != 2 {
		t.Fatalf("marks = %v", dev.Marks())
	}
}

func TestDeviceTruncateRange(t *testing.T) {
	dev := newDev(t)
	buf := make([]byte, 3*block.Size)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := dev.WriteAt(0, buf); err != nil {
		t.Fatal(err)
	}
	if dev.BlocksMapped() != 3 {
		t.Fatalf("mapped = %d", dev.BlocksMapped())
	}
	// Partial coverage frees nothing; whole blocks are reclaimed.
	if n := dev.TruncateRange(1, block.Size+1); n != 0 {
		t.Fatalf("partial range freed %d", n)
	}
	if n := dev.TruncateRange(block.Size, 3*block.Size); n != 2 {
		t.Fatalf("freed %d, want 2", n)
	}
	if dev.BlocksMapped() != 1 {
		t.Fatalf("mapped = %d after truncate", dev.BlocksMapped())
	}
	// Truncated ranges read as zero.
	got := make([]byte, 4)
	if err := dev.ReadAt(block.Size, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[3] != 0 {
		t.Fatalf("truncated read = %v", got)
	}
	if dev.String() == "" {
		t.Fatal("empty String")
	}
}

// TestDeviceTableFollowsMappedBlocks slides a four-block window over a
// logical space hundreds of times the store: the block table, the store
// and the reads behind the window must all follow what is mapped now, not
// what was ever written.
func TestDeviceTableFollowsMappedBlocks(t *testing.T) {
	const window, total = 4, 10000
	dev := NewDevice(block.NewStore(2*window), 0)
	buf := make([]byte, block.Size)
	for lb := int64(0); lb < total; lb++ {
		buf[0] = byte(lb)
		if err := dev.WriteAt(lb*block.Size, buf); err != nil {
			t.Fatalf("write of logical block %d: %v", lb, err)
		}
		if lo := lb - window + 1; lo > 0 {
			// The range starts at 0 every time: what is already gone is
			// not freed twice.
			if n := dev.TruncateRange(0, lo*block.Size); n != 1 {
				t.Fatalf("truncate below block %d freed %d blocks, want 1", lo, n)
			}
		}
		if got := len(dev.blkmap); got > window {
			t.Fatalf("table holds %d entries at logical block %d, window is %d", got, lb, window)
		}
	}
	if ext := dev.extent(); ext != total*block.Size {
		t.Fatalf("extent = %d, want %d", ext, total*block.Size)
	}
	got := make([]byte, 1)
	for lb := int64(total - 2*window); lb < total; lb++ {
		if err := dev.ReadAt(lb*block.Size, got); err != nil {
			t.Fatal(err)
		}
		want := byte(lb)
		if lb < total-window {
			want = 0
		}
		if got[0] != want {
			t.Fatalf("logical block %d reads %d, want %d", lb, got[0], want)
		}
	}
}

func TestDeviceReproducible(t *testing.T) {
	run := func() uint64 {
		dev := newDev(t)
		l := NewLog(dev, Config{CheckpointEvery: 4})
		for _, s := range walScript() {
			if _, err := l.Append(s.op, s.args); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		return dev.Fingerprint()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two identical runs fingerprint differently: %#x vs %#x", a, b)
	}
}

func TestZeroTicketWait(t *testing.T) {
	var tk Ticket
	if err := tk.Wait(); err != nil {
		t.Fatalf("zero ticket: %v", err)
	}
}

func TestBrokenLogRejectsAppends(t *testing.T) {
	dev := newDev(t)
	dev.CrashAt(0)
	l := NewLog(dev, Config{})
	if _, err := l.Append(spec.OpMkdir, spec.Args{Path: "/a"}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append on dead device: %v", err)
	}
	if err := l.Broken(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("broken not latched: %v", err)
	}
	if _, err := l.Append(spec.OpMkdir, spec.Args{Path: "/b"}); !errors.Is(err, ErrCrashed) {
		t.Fatal("append after broken accepted")
	}
	if err := l.CheckpointNow(); !errors.Is(err, ErrCrashed) {
		t.Fatal("checkpoint after broken accepted")
	}
}

func TestUnarmedDeviceKeepsNoMarks(t *testing.T) {
	dev := newDev(t)
	for i := 0; i < 10000; i++ {
		if err := dev.WriteAt(int64(i%64), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if m := dev.Marks(); m != nil {
		t.Fatalf("un-armed device recorded %d marks", len(m))
	}
	dev.RecordMarks()
	if err := dev.WriteAt(0, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	if m := dev.Marks(); len(m) != 1 || m[0] != 10002 {
		t.Fatalf("armed marks = %v, want [10002]", m)
	}
}

// TestWaitIgnoresAppendLock: a committer whose record is already on the
// device must not queue behind another client's append or checkpoint.
func TestWaitIgnoresAppendLock(t *testing.T) {
	l := NewLog(newDev(t), Config{})
	tk, err := l.Append(spec.OpMkdir, spec.Args{Path: "/a"})
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock() // another client is inside its append section
	defer l.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- tk.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait blocked on the append mutex")
	}
	if l.DurableSeq() != 1 {
		t.Fatalf("durableSeq = %d, want 1", l.DurableSeq())
	}
}

// fillState appends nFiles files of fileSize bytes each, 64 to a
// directory, as /data/d<nn>/f<nn>, and returns the bytes of the records
// it appended.
func fillState(tb testing.TB, l *Log, nFiles, fileSize int) (recBytes int64) {
	tb.Helper()
	app := func(op spec.Op, args spec.Args) {
		tb.Helper()
		if _, err := l.Append(op, args); err != nil {
			tb.Fatalf("%s %s: %v", op, args.Path, err)
		}
		recBytes += int64(len(encodeRecord(op, 0, args)))
	}
	app(spec.OpMkdir, spec.Args{Path: "/data"})
	data := make([]byte, fileSize)
	for i := 0; i < nFiles; i++ {
		for j := range data {
			data[j] = byte(i + j)
		}
		dir := fmt.Sprintf("/data/d%02d", i/64)
		if i%64 == 0 {
			app(spec.OpMkdir, spec.Args{Path: dir})
		}
		path := fmt.Sprintf("%s/f%02d", dir, i%64)
		app(spec.OpMknod, spec.Args{Path: path})
		app(spec.OpWrite, spec.Args{Path: path, Data: data})
	}
	return recBytes
}

// TestCheckpointChunkBoundaryCrashes sweeps the crash point over every
// WriteAt boundary (± 1 byte) of a checkpoint that spans several chunks:
// recovery must land on the previous generation plus its whole tail or on
// the new generation — the same state either way — and never fail.
func TestCheckpointChunkBoundaryCrashes(t *testing.T) {
	// setup builds generation 1 (a small blob) and, as its tail, more than
	// three chunks of state; the caller then takes the checkpoint under
	// test. No crash point of the sweep lies inside setup.
	setup := func(dev *Device) *Log {
		l := NewLog(dev, Config{})
		if _, err := l.Append(spec.OpMkdir, spec.Args{Path: "/old"}); err != nil {
			t.Fatal(err)
		}
		if err := l.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		fillState(t, l, 4, ckptChunk-1000)
		return l
	}

	dry := newBigDev(16 << 20)
	l := setup(dry)
	ckptStart := dry.Written()
	dry.RecordMarks()
	if err := l.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	wantSeq, wantKey := l.LastSeq(), l.ShadowKey()
	marks := dry.Marks() // the blob's chunks, then the superblock
	if len(marks) < 3+1 {
		t.Fatalf("checkpoint took %d writes, want >= 3 chunks and a superblock", len(marks))
	}
	cuts := []int64{ckptStart, ckptStart + 1}
	for _, m := range marks {
		cuts = append(cuts, m-1, m, m+1)
	}

	gens := map[uint64]int{}
	for _, k := range cuts {
		dev := newBigDev(16 << 20)
		dev.CrashAt(k)
		if err := setup(dev).CheckpointNow(); err != nil && !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash@%d: checkpoint: %v", k, err)
		}
		afs, info, err := Recover(dev, nil)
		if err != nil {
			t.Fatalf("crash@%d: recover: %v", k, err)
		}
		if info.LastSeq != wantSeq || afs.Key() != wantKey {
			t.Fatalf("crash@%d: recovered seq %d from sb v%d, want seq %d and the full state",
				k, info.LastSeq, info.SuperblockVersion, wantSeq)
		}
		switch {
		case info.SuperblockVersion == 1 && info.CkptSeq == 1 && info.Replayed == int(wantSeq)-1:
		case info.SuperblockVersion == 2 && info.CkptSeq == wantSeq && info.Replayed == 0:
		default:
			t.Fatalf("crash@%d: neither generation 1 + tail nor generation 2: %+v", k, info)
		}
		gens[info.SuperblockVersion]++
	}
	if gens[1] == 0 || gens[2] == 0 {
		t.Fatalf("sweep did not reach both generations: %v", gens)
	}
}

func newBigDev(bytes int) *Device {
	return NewDevice(block.NewStore(bytes/block.Size), 0)
}

// TestLargeCheckpointRecovers: a state past 16 MiB must still checkpoint
// and recover — the sealed superblock vouches for the blob's length.
func TestLargeCheckpointRecovers(t *testing.T) {
	dev := newBigDev(96 << 20)
	l := NewLog(dev, Config{})
	fillState(t, l, 5, 4<<20)
	if err := l.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if l.ckptLen <= 16<<20 {
		t.Fatalf("blob is %d bytes, test needs > %d", l.ckptLen, 16<<20)
	}
	if _, err := l.Append(spec.OpMknod, spec.Args{Path: "/after"}); err != nil {
		t.Fatal(err)
	}
	afs, info, err := Recover(dev, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.CkptSeq != l.LastSeq()-1 || info.Replayed != 1 {
		t.Fatalf("info = %+v", info)
	}
	if afs.Key() != l.ShadowKey() {
		t.Fatal("recovered state diverges from shadow")
	}
}

// TestRecordPastSixteenMiBRecovers: a Write of file.MaxSize bytes is a
// legal operation whose record payload exceeds 16 MiB. It is
// acknowledged durable, so recovery must replay it and every record
// after it, not stop the scan at its header.
func TestRecordPastSixteenMiBRecovers(t *testing.T) {
	dev := newBigDev(48 << 20)
	l := NewLog(dev, Config{})
	data := make([]byte, file.MaxSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for _, st := range []step{
		{spec.OpMknod, spec.Args{Path: "/f"}},
		{spec.OpWrite, spec.Args{Path: "/f", Data: data}},
		{spec.OpMknod, spec.Args{Path: "/after"}},
	} {
		tk, err := l.Append(st.op, st.args)
		if err != nil {
			t.Fatalf("%s %s: %v", st.op, st.args.Path, err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatalf("%s %s: wait: %v", st.op, st.args.Path, err)
		}
	}
	afs, info, err := Recover(dev, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.Replayed != 3 || info.LastSeq != l.LastSeq() {
		t.Fatalf("replayed %d records up to seq %d, want 3 up to %d (%s)",
			info.Replayed, info.LastSeq, l.LastSeq(), info)
	}
	if afs.Key() != l.ShadowKey() {
		t.Fatal("recovered state diverges from shadow")
	}
}

func TestFirstCheckpointAtCheckpointEvery(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLog(newDev(t), Config{CheckpointEvery: 8, Obs: reg})
	ckpts := reg.Counter("wal_checkpoints_total")
	for i := 0; i < 8; i++ {
		if got := ckpts.Value(); got != 0 {
			t.Fatalf("%d checkpoints after %d records", got, i)
		}
		if _, err := l.Append(spec.OpMknod, spec.Args{Path: "/f" + string(rune('0'+i))}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ckpts.Value(); got != 1 {
		t.Fatalf("%d checkpoints after 8 records, want 1", got)
	}
}

// TestCheckpointCadenceBounds holds the size-amortised cadence to its
// stated bounds on a state much larger than CheckpointEvery records:
// journal bytes <= 6 x record bytes + 2 S, and device footprint — mapped
// now, and ever materialised in the store — <= 2.25 S plus slack.
func TestCheckpointCadenceBounds(t *testing.T) {
	store := block.NewStore(16 << 10)
	dev := NewDevice(store, 0)
	reg := obs.NewRegistry()
	l := NewLog(dev, Config{CheckpointEvery: 4, Obs: reg})
	fillState(t, l, 16, 64<<10)
	if err := l.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	S := l.ckptLen
	w0, c0 := dev.Written(), reg.Counter("wal_checkpoints_total").Value()

	// Overwrites keep the state at S bytes while the log grows.
	var recBytes int64
	args := spec.Args{Path: "/data/d00/f00", Data: make([]byte, 512)}
	for i := 0; i < 4000; i++ {
		args.Off = int64(i%64) * 512
		if _, err := l.Append(spec.OpWrite, args); err != nil {
			t.Fatal(err)
		}
		recBytes += int64(len(encodeRecord(spec.OpWrite, 0, args)))
	}
	ckpts := int64(reg.Counter("wal_checkpoints_total").Value() - c0)
	if ckpts < 2 {
		t.Fatalf("%d checkpoints over %d log bytes on a %d-byte state: the test exercises nothing", ckpts, recBytes, S)
	}
	if written := dev.Written() - w0; written > 6*recBytes+2*S {
		t.Fatalf("journal wrote %d bytes for %d record bytes on a %d-byte state (%d checkpoints): over 6R + 2S",
			written, recBytes, S, ckpts)
	}
	const slack = 32 * block.Size // superblocks, block rounding, CheckpointEvery records
	limit := S*9/4 + slack
	if mapped := int64(dev.BlocksMapped()) * block.Size; mapped > limit {
		t.Fatalf("device maps %d bytes, bound is %d", mapped, limit)
	}
	var peak int64
	store.Range(func(block.Index, []byte) bool { peak += block.Size; return true })
	if peak > limit {
		t.Fatalf("store materialised %d bytes, bound is %d", peak, limit)
	}
	afs, _, err := Recover(dev, nil)
	if err != nil || afs.Key() != l.ShadowKey() {
		t.Fatalf("recover after cadence run: %v", err)
	}
}

// TestCheckpointReclaimsIncrementally: a checkpoint truncates from where
// the last one stopped, not from logBase, and misses nothing by it — after
// every checkpoint of a growing and shrinking state exactly the blocks
// from the new blob on are mapped, beside the superblock slots.
func TestCheckpointReclaimsIncrementally(t *testing.T) {
	dev := NewDevice(block.NewStore(4096), 0)
	l := NewLog(dev, Config{})
	data := make([]byte, 3*block.Size+17)
	for i := 0; i < 40; i++ {
		path := fmt.Sprintf("/f%02d", i)
		if _, err := l.Append(spec.OpMknod, spec.Args{Path: path}); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(spec.OpWrite, spec.Args{Path: path, Data: data}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if _, err := l.Append(spec.OpUnlink, spec.Args{Path: fmt.Sprintf("/f%02d", i-1)}); err != nil {
				t.Fatal(err)
			}
		}
		prev := l.reclaimed
		if err := l.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		if l.reclaimed <= prev {
			t.Fatalf("checkpoint %d: reclaimed stayed at %d", i, prev)
		}
		sbs := min(int(l.version), 2) // slot A is first written by the second checkpoint
		want := sbs + int((l.end+block.Size-1)/block.Size-l.reclaimed/block.Size)
		if got := dev.BlocksMapped(); got != want {
			t.Fatalf("checkpoint %d: %d blocks mapped, want %d (the blob at %d..%d and the superblocks)",
				i, got, want, l.reclaimed, l.end)
		}
	}
	afs, _, err := Recover(dev, nil)
	if err != nil || afs.Key() != l.ShadowKey() {
		t.Fatalf("recover: %v", err)
	}
}

// TestCheckpointAllocatesChunkNotState: the streaming encoder's transient
// allocation is bounded by its chunk, whatever the size of the state.
func TestCheckpointAllocatesChunkNotState(t *testing.T) {
	l := NewLog(newBigDev(64<<20), Config{})
	fillState(t, l, 64, 64<<10) // 4 MiB
	// The first checkpoint allocates the chunk; the rest reuse it.
	if err := l.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if err := l.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per > ckptChunk {
		t.Fatalf("a checkpoint of %d bytes allocated %d, want <= one %d-byte chunk", l.ckptLen, per, ckptChunk)
	}
}

// TestEncodeRecordAllocatesOnce: a record is framed in one buffer — the
// arguments are encoded in place, never into a temporary and copied.
func TestEncodeRecordAllocatesOnce(t *testing.T) {
	args := spec.Args{Path: "/data/d00/f00", Off: 4096, Data: make([]byte, 1024)}
	if n := testing.AllocsPerRun(200, func() { encodeRecord(spec.OpWrite, 7, args) }); n != 1 {
		t.Fatalf("encodeRecord: %v allocations per record, want 1", n)
	}
	rec := encodeRecord(spec.OpWrite, 7, args)
	if cap(rec) != len(rec) {
		t.Fatalf("record buffer sized %d for %d bytes", cap(rec), len(rec))
	}
	dev := newDev(t)
	if err := dev.WriteAt(logBase, rec); err != nil {
		t.Fatal(err)
	}
	dev.mu.Lock()
	op, got, n, ok := readRecord(dev, logBase, 7)
	dev.mu.Unlock()
	if !ok || op != spec.OpWrite || n != int64(len(rec)) || got.Path != args.Path || got.Off != args.Off || len(got.Data) != len(args.Data) {
		t.Fatalf("record does not scan back: ok=%v op=%s n=%d args=%s", ok, op, n, got)
	}
}

// sealStepper parks a checkpoint's seal after each blob block it writes
// (the yield seam) until the test resumes it, so a test can append and
// acknowledge records between blob blocks on a fixed schedule.
type sealStepper struct {
	parked chan struct{}
	resume chan struct{}
	free   chan struct{}
}

func stepSeals(l *Log) *sealStepper {
	st := &sealStepper{parked: make(chan struct{}), resume: make(chan struct{}), free: make(chan struct{})}
	l.yield = func() {
		select {
		case st.parked <- struct{}{}:
			<-st.resume
		case <-st.free:
		}
	}
	return st
}

// release resumes the parked seal and lets it run to the end unparked.
func (st *sealStepper) release() {
	close(st.free)
	st.resume <- struct{}{}
}

// cut takes a checkpoint cut the way an Append meeting the cadence does.
func cut(t *testing.T, l *Log) *seal {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.cutLocked(); err != nil {
		t.Fatalf("cut: %v", err)
	}
	return l.seal
}

// interleavedScript is a state of several blob blocks followed by the
// records a test appends while that state's checkpoint is sealed.
func interleavedScript() (state, during []step) {
	state = []step{{spec.OpMkdir, spec.Args{Path: "/d"}}}
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("/d/f%d", i)
		data := make([]byte, 5000)
		for j := range data {
			data[j] = byte(i*31 + j)
		}
		state = append(state, step{spec.OpMknod, spec.Args{Path: p}}, step{spec.OpWrite, spec.Args{Path: p, Data: data}})
	}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/d/late%d", i)
		during = append(during, step{spec.OpMknod, spec.Args{Path: p}})
		if i%2 == 1 {
			during = append(during, step{spec.OpRename, spec.Args{Path: p, Path2: p + "-moved"}})
		}
	}
	// Overwrites and an unlink of what the snapshot holds: the frozen
	// view must not see them.
	during = append(during,
		step{spec.OpWrite, spec.Args{Path: "/d/f0", Off: 10, Data: []byte("after the cut")}},
		step{spec.OpUnlink, spec.Args{Path: "/d/f1"}},
		step{spec.OpTruncate, spec.Args{Path: "/d/f2", Off: 7}},
	)
	return state, during
}

// runInterleaved appends state, cuts a checkpoint, and appends and
// acknowledges one record of during each time the seal parks between
// blob blocks, the rest after it is sealed. It stops at the first device
// error and returns the highest seq acknowledged durable.
func runInterleaved(t *testing.T, dev *Device) (acked uint64) {
	t.Helper()
	state, during := interleavedScript()
	l := NewLog(dev, Config{CheckpointEvery: 1 << 20})
	app := func(s step) bool {
		tk, err := l.Append(s.op, s.args)
		if err == nil {
			err = tk.Wait()
		}
		if err != nil {
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("%s %s: %v", s.op, s.args.Path, err)
			}
			return false
		}
		acked = tk.seq
		return true
	}
	for _, s := range state {
		if !app(s) {
			return acked
		}
	}
	st := stepSeals(l)
	l.mu.Lock()
	err := l.cutLocked()
	s := l.seal
	l.mu.Unlock()
	if err != nil {
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("cut: %v", err)
		}
		return acked
	}
	ok := true
	for i := 0; ; {
		select {
		case <-st.parked:
			if ok && i < len(during) {
				ok = app(during[i])
				i++
			}
			st.resume <- struct{}{}
			continue
		case <-s.done:
		}
		for ; ok && i < len(during); i++ {
			ok = app(during[i])
		}
		return acked
	}
}

// TestSealInterleavedCrashes is the deterministic sweep of a checkpoint
// in flight: records are appended and acknowledged between the blob's
// blocks, and the device dies at every write mark ± 1 — inside the
// reservation, between and inside blob blocks and the records past the
// reservation, inside the superblock flip, and after it. Recovery must
// never lose an acknowledged record and must land on the golden prefix.
func TestSealInterleavedCrashes(t *testing.T) {
	state, during := interleavedScript()
	keys := goldenKeys(t, append(append([]step(nil), state...), during...))
	cutSeq := uint64(len(state))

	dry := newDev(t)
	dry.RecordMarks()
	if acked := runInterleaved(t, dry); acked != uint64(len(keys)-1) {
		t.Fatalf("dry run acknowledged %d of %d records", acked, len(keys)-1)
	}
	var cuts []int64
	for _, m := range dry.Marks() {
		cuts = append(cuts, m-1, m, m+1)
	}
	pastUnsealed := 0
	for _, k := range cuts {
		dev := newDev(t)
		dev.CrashAt(k)
		acked := runInterleaved(t, dev)
		afs, info, err := Recover(dev, nil)
		if err != nil {
			t.Fatalf("crash@%d: recover: %v", k, err)
		}
		if info.LastSeq < acked {
			t.Fatalf("crash@%d: durability violation: acked seq %d, recovered %d (%s)", k, acked, info.LastSeq, info)
		}
		if int(info.LastSeq) >= len(keys) || afs.Key() != keys[info.LastSeq] {
			t.Fatalf("crash@%d: recovered state is not the seq-%d golden prefix (%s)", k, info.LastSeq, info)
		}
		if info.CkptSeq < cutSeq && info.LastSeq > cutSeq {
			pastUnsealed++ // records read across a reservation whose seal never finished
		}
	}
	if pastUnsealed == 0 {
		t.Fatal("no crash point recovered records past an unsealed reservation")
	}
}

// TestSealStoreFullIsSticky: a store that fills up under the blob fails
// the seal, and the error is the log's: the next Wait of a record not yet
// durable, the next Append and the next checkpoint all return it.
func TestSealStoreFullIsSticky(t *testing.T) {
	dev := NewDevice(block.NewStore(10), 0)
	l := NewLog(dev, Config{CheckpointEvery: 1 << 20})
	data := make([]byte, 20000)
	for _, s := range []step{
		{spec.OpMknod, spec.Args{Path: "/f"}},
		{spec.OpWrite, spec.Args{Path: "/f", Data: data}},
	} {
		if _, err := l.Append(s.op, s.args); err != nil {
			t.Fatal(err)
		}
	}
	st := stepSeals(l)
	s := cut(t, l)
	<-st.parked // the seal has written a block of the blob
	tk, err := l.Append(spec.OpMknod, spec.Args{Path: "/g"})
	if err != nil {
		t.Fatalf("append during the seal: %v", err)
	}
	st.release()
	<-s.done
	if !errors.Is(s.err, fserr.ErrNoSpace) {
		t.Fatalf("seal error = %v, want the store's ErrNoSpace", s.err)
	}
	if err := tk.Wait(); !errors.Is(err, fserr.ErrNoSpace) {
		t.Fatalf("Wait after the failed seal = %v", err)
	}
	if _, err := l.Append(spec.OpMknod, spec.Args{Path: "/h"}); !errors.Is(err, fserr.ErrNoSpace) {
		t.Fatalf("Append after the failed seal = %v", err)
	}
	if err := l.CheckpointNow(); !errors.Is(err, fserr.ErrNoSpace) {
		t.Fatalf("CheckpointNow after the failed seal = %v", err)
	}
	if err := l.Settle(); err != nil {
		t.Fatalf("Settle after the failed seal was reaped = %v", err)
	}
}

// TestRecoverDuringSeal: Recover reads one instant of the device, so it
// may run beside a log that is appending and sealing — parked mid-blob,
// and free-running under the race detector.
func TestRecoverDuringSeal(t *testing.T) {
	t.Run("parked", func(t *testing.T) {
		state, during := interleavedScript()
		keys := goldenKeys(t, append(append([]step(nil), state...), during...))
		dev := newDev(t)
		l := NewLog(dev, Config{CheckpointEvery: 1 << 20})
		for _, s := range state {
			if _, err := l.Append(s.op, s.args); err != nil {
				t.Fatal(err)
			}
		}
		st := stepSeals(l)
		s := cut(t, l)
		<-st.parked
		if _, err := l.Append(during[0].op, during[0].args); err != nil {
			t.Fatal(err)
		}
		afs, info, err := Recover(dev, nil)
		if err != nil {
			t.Fatalf("recover mid-seal: %v", err)
		}
		if info.LastSeq != l.LastSeq() || info.SuperblockVersion != 0 || afs.Key() != keys[info.LastSeq] {
			t.Fatalf("recover mid-seal: %s", info)
		}
		st.release()
		<-s.done
		if s.err != nil {
			t.Fatal(s.err)
		}
		afs, info, err = Recover(dev, nil)
		if err != nil || info.SuperblockVersion != 1 || afs.Key() != l.ShadowKey() {
			t.Fatalf("recover after the seal: %v (%s)", err, info)
		}
	})
	t.Run("free-running", func(t *testing.T) {
		const n = 600
		var script []step
		for i := 0; i < n; i++ {
			script = append(script, step{spec.OpMknod, spec.Args{Path: fmt.Sprintf("/f%03d", i)}})
		}
		keys := goldenKeys(t, script)
		dev := newDev(t)
		l := NewLog(dev, Config{CheckpointEvery: 8})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, s := range script {
				if _, err := l.Append(s.op, s.args); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
			}
			floor := l.LastSeq()
			afs, info, err := Recover(dev, nil)
			if err != nil {
				t.Fatalf("recover beside appends and seals: %v", err)
			}
			if info.LastSeq < floor || afs.Key() != keys[info.LastSeq] {
				t.Fatalf("recovered seq %d (floor %d) is not its golden prefix: %s", info.LastSeq, floor, info)
			}
		}
		if err := l.Settle(); err != nil {
			t.Fatal(err)
		}
	})
}
