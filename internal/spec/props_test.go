package spec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fserr"
)

// Conservation properties of the abstract operations: each Aop changes
// the inode population in exactly the way its semantics dictate.

func TestPropertyInodeCountDeltas(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fs := New()
		for i := 0; i < 120; i++ {
			op, args := randomOp(r)
			before := fs.NumInodes()
			ret, effs := fs.Apply(op, args)
			after := fs.NumInodes()
			if ret.Err != nil {
				if after != before {
					t.Logf("failed %s changed inode count", op)
					return false
				}
				continue
			}
			switch op {
			case OpMkdir, OpMknod:
				if after != before+1 {
					return false
				}
			case OpRmdir, OpUnlink:
				if after != before-1 {
					return false
				}
			case OpRename:
				// No-op or move: -1 only when a victim was overwritten,
				// detectable from the effects.
				victims := 0
				for _, e := range effs {
					if e.Kind == EffFree {
						victims++
					}
				}
				if after != before-victims {
					return false
				}
			default:
				if after != before {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyReadOnlyOpsPreserveState: stat/read/readdir leave the
// canonical state untouched.
func TestPropertyReadOnlyOpsPreserveState(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fs := New()
		for i := 0; i < 40; i++ {
			op, args := randomOp(r)
			fs.Apply(op, args)
		}
		key := fs.Key()
		for i := 0; i < 30; i++ {
			op, args := randomOp(r)
			if op.Mutates() {
				continue
			}
			fs.Apply(op, args)
			if fs.Key() != key {
				t.Logf("%s %s mutated state", op, args)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRenameRoundTrip: a successful rename followed by the
// inverse rename restores the canonical state (when the destination did
// not overwrite anything).
func TestPropertyRenameRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fs := New()
		for i := 0; i < 40; i++ {
			op, args := randomOp(r)
			fs.Apply(op, args)
		}
		for i := 0; i < 20; i++ {
			op, args := randomOp(r)
			if op != OpRename {
				continue
			}
			before := fs.Key()
			ret, effs := fs.Apply(op, args)
			if ret.Err != nil {
				continue
			}
			overwrote := false
			for _, e := range effs {
				if e.Kind == EffFree {
					overwrote = true
				}
			}
			if overwrote {
				continue
			}
			back, _ := fs.Apply(OpRename, Args{Path: args.Path2, Path2: args.Path})
			if back.Err != nil {
				// Same-path no-op renames invert trivially; anything else
				// must invert cleanly.
				if args.Path == args.Path2 {
					continue
				}
				t.Logf("inverse rename failed: %v", back.Err)
				return false
			}
			if fs.Key() != before {
				t.Logf("rename round trip changed state")
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCloneObservationallyEqual: a clone answers every read-only
// query identically.
func TestPropertyCloneObservationallyEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fs := New()
		for i := 0; i < 50; i++ {
			op, args := randomOp(r)
			fs.Apply(op, args)
		}
		c := fs.Clone()
		if fs.Key() != c.Key() {
			return false
		}
		for i := 0; i < 20; i++ {
			op, args := randomOp(r)
			if op.Mutates() {
				continue
			}
			r1, _ := fs.Apply(op, args)
			r2, _ := c.Apply(op, args)
			if !r1.Equal(r2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMaxFileSizeMatchesConcrete pins the abstract/concrete size caps
// together (asserted against internal/file's constant by value to avoid
// an import cycle: 4096 blocks x 4096 bytes).
func TestMaxFileSizeMatchesConcrete(t *testing.T) {
	if MaxFileSize != 4096*4096 {
		t.Fatalf("MaxFileSize = %d, want %d", MaxFileSize, 4096*4096)
	}
}

// TestWriteAtSizeBoundary: writes ending exactly at MaxFileSize succeed;
// one byte past fails.
func TestWriteAtSizeBoundary(t *testing.T) {
	fs := New()
	fs.Apply(OpMknod, Args{Path: "/f"})
	r, _ := fs.Apply(OpWrite, Args{Path: "/f", Off: MaxFileSize - 4, Data: []byte("last")})
	if r.Err != nil {
		t.Fatalf("boundary write failed: %v", r.Err)
	}
	r, _ = fs.Apply(OpWrite, Args{Path: "/f", Off: MaxFileSize - 3, Data: []byte("over")})
	if !wantErrIs(r.Err, fserr.ErrNoSpace) {
		t.Fatalf("past-boundary write: %v", r.Err)
	}
}

func wantErrIs(err, sentinel error) bool { return err != nil && err.Error() == sentinel.Error() }

// snapshotOp extends randomOp with the cross-volume halves, so the
// copy-on-write property covers detach and attach beside rename and
// truncate.
func snapshotOp(r *rand.Rand) (Op, Args) {
	switch r.Intn(10) {
	case 0:
		_, args := randomOp(r)
		return OpDetach, Args{Path: args.Path}
	case 1:
		_, args := randomOp(r)
		sub := &SubTree{Kind: KindDir, Children: map[string]*SubTree{
			"x": {Kind: KindFile, Data: []byte("carried")},
			"y": {Kind: KindDir, Children: map[string]*SubTree{}},
		}}
		if r.Intn(2) == 0 {
			sub = &SubTree{Kind: KindFile, Data: []byte("file payload")}
		}
		return OpAttach, Args{Path: args.Path, Sub: sub}
	default:
		return randomOp(r)
	}
}

// TestPropertySnapshotFrozen: after Snapshot, no Aop on the live state
// and no roll-back of one — applied before or after the snapshot —
// changes the view's Key, and the live state evolves exactly as an
// unshared copy of it does. Rounds reuse one index map, as the journal's
// checkpointer does.
func TestPropertySnapshotFrozen(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fs, ref := New(), New()
		index := map[Inum]*ANode{}
		for round := 0; round < 4; round++ {
			for i := 0; i < 30; i++ {
				op, args := snapshotOp(r)
				fs.Apply(op, args)
				ref.Apply(op, args)
			}
			// An op applied before the snapshot and rolled back after it
			// must copy what the snapshot shares, as the op's own
			// forward mutations did not.
			var pending []Effect
			beforePending := fs.Key()
			for tries := 0; pending == nil && tries < 20; tries++ {
				op, args := snapshotOp(r)
				if ret, effs := fs.Apply(op, args); ret.Err == nil {
					pending = effs
				}
			}
			view := fs.Snapshot(index)
			frozen := view.Key()
			for j := len(pending) - 1; j >= 0; j-- {
				pending[j].undo(fs)
			}
			if view.Key() != frozen || (pending != nil && fs.Key() != beforePending) {
				t.Logf("seed %d: undo across a snapshot", seed)
				return false
			}
			ref = fs.Clone()
			for i := 0; i < 40; i++ {
				op, args := snapshotOp(r)
				before := fs.Key()
				ret, effs := fs.Apply(op, args)
				rret, _ := ref.Apply(op, args)
				if !ret.Equal(rret) || fs.Key() != ref.Key() {
					t.Logf("seed %d: %s %s diverges from the unshared state", seed, op, args)
					return false
				}
				if view.Key() != frozen {
					t.Logf("seed %d: %s %s changed the snapshot", seed, op, args)
					return false
				}
				if ret.Err == nil && r.Intn(4) == 0 {
					for j := len(effs) - 1; j >= 0; j-- {
						effs[j].undo(fs)
					}
					if fs.Key() != before || view.Key() != frozen {
						t.Logf("seed %d: undo of %s %s under a snapshot", seed, op, args)
						return false
					}
					ref = fs.Clone()
				}
				if err := fs.GoodAFS(); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
			}
			fs.Unshare()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
