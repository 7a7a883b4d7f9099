package atomfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/fserr"
	"repro/internal/spec"
)

// TestRefFDReadAfterUnlink: the §5.4 design — an unlinked-but-open file
// stays fully usable through its descriptor, with no VFS shadow copy.
func TestRefFDReadAfterUnlink(t *testing.T) {
	fs := New(WithBlocks(64))
	if err := fs.Mknod(tctx, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(tctx, "/f", 0, []byte("persistent")); err != nil {
		t.Fatal(err)
	}
	fd, err := fs.OpenRef(tctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink(tctx, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(tctx, "/f"); !errors.Is(err, fserr.ErrNotExist) {
		t.Fatal("file still reachable by path")
	}
	if !fd.Unlinked() {
		t.Fatal("descriptor does not know the file is unlinked")
	}
	// Reads and writes still work on the pinned inode.
	buf := make([]byte, 16)
	n, err := fd.ReadAt(tctx, buf, 0)
	if err != nil || string(buf[:n]) != "persistent" {
		t.Fatalf("read = %q %v", buf[:n], err)
	}
	if _, err := fd.WriteAt(tctx, []byte("!"), int64(n)); err != nil {
		t.Fatal(err)
	}
	info, err := fd.Stat(tctx)
	if err != nil || info.Size != 11 {
		t.Fatalf("stat = %+v %v", info, err)
	}
	// Storage is reclaimed only at the last Close.
	if fs.BlocksInUse() == 0 {
		t.Fatal("blocks reclaimed while descriptor open")
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.BlocksInUse() != 0 {
		t.Fatalf("leaked %d blocks after close", fs.BlocksInUse())
	}
	if err := fd.Close(); !errors.Is(err, fserr.ErrBadFD) {
		t.Fatalf("double close = %v", err)
	}
	if _, err := fd.ReadAt(tctx, buf, 0); !errors.Is(err, fserr.ErrBadFD) {
		t.Fatalf("read after close = %v", err)
	}
}

// TestRefFDSurvivesAncestorRename: FD operations keep working when the
// path that opened them is renamed away — no path traversal, no
// inter-dependency on renames (§5.4).
func TestRefFDSurvivesAncestorRename(t *testing.T) {
	fs := New()
	for _, d := range []string{"/a", "/a/b"} {
		if err := fs.Mkdir(tctx, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Mknod(tctx, "/a/b/f"); err != nil {
		t.Fatal(err)
	}
	fd, err := fs.OpenRef(tctx, "/a/b/f")
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	if err := fs.Rename(tctx, "/a", "/z"); err != nil {
		t.Fatal(err)
	}
	if _, err := fd.WriteAt(tctx, []byte("still here"), 0); err != nil {
		t.Fatal(err)
	}
	// The write is visible at the file's new path.
	data, err := fsapi.ReadAll(tctx, fs, "/z/b/f", 0, 32)
	if err != nil || string(data) != "still here" {
		t.Fatalf("read via new path = %q %v", data, err)
	}
	if fd.Unlinked() {
		t.Fatal("rename of ancestor must not mark the inode unlinked")
	}
}

// TestRefFDDirectory: pinned directory descriptors list entries and
// reject file ops.
func TestRefFDDirectory(t *testing.T) {
	fs := New()
	fs.Mkdir(tctx, "/d")
	fs.Mknod(tctx, "/d/x")
	fd, err := fs.OpenRef(tctx, "/d")
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	names, err := fd.Readdir(tctx)
	if err != nil || len(names) != 1 || names[0] != "x" {
		t.Fatalf("readdir = %v %v", names, err)
	}
	if _, err := fd.ReadAt(tctx, make([]byte, 1), 0); !errors.Is(err, fserr.ErrIsDir) {
		t.Fatalf("read on dir fd = %v", err)
	}
	if err := fd.Truncate(tctx, 0); !errors.Is(err, fserr.ErrIsDir) {
		t.Fatalf("truncate on dir fd = %v", err)
	}
	info, err := fd.Stat(tctx)
	if err != nil || info.Kind != spec.KindDir || info.Size != 1 {
		t.Fatalf("stat = %+v %v", info, err)
	}
}

// TestRefFDOverwriteByRename: rename overwriting an open file defers its
// reclamation too.
func TestRefFDOverwriteByRename(t *testing.T) {
	fs := New(WithBlocks(64))
	fs.Mknod(tctx, "/victim")
	fs.Write(tctx, "/victim", 0, bytes.Repeat([]byte("v"), 8192))
	fs.Mknod(tctx, "/new")
	fd, err := fs.OpenRef(tctx, "/victim")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(tctx, "/new", "/victim"); err != nil {
		t.Fatal(err)
	}
	if !fd.Unlinked() {
		t.Fatal("overwritten inode not marked unlinked")
	}
	// The old content is still readable through the descriptor.
	buf := make([]byte, 4)
	if n, err := fd.ReadAt(tctx, buf, 0); err != nil || string(buf[:n]) != "vvvv" {
		t.Fatalf("read = %q %v", buf[:n], err)
	}
	used := fs.BlocksInUse()
	if used == 0 {
		t.Fatal("victim blocks reclaimed while pinned")
	}
	fd.Close()
	if fs.BlocksInUse() >= used {
		t.Fatal("victim blocks not reclaimed at close")
	}
}

// TestRefFDOpenUnlinkedFails: a concurrent unlink between resolution and
// pinning is detected; the descriptor is never handed out.
func TestRefFDOpenUnlinkedFails(t *testing.T) {
	fs := New()
	fs.Mknod(tctx, "/f")
	fs.Unlink(tctx, "/f")
	if _, err := fs.OpenRef(tctx, "/f"); !errors.Is(err, fserr.ErrNotExist) {
		t.Fatalf("open of unlinked = %v", err)
	}
}

// TestRefFDConcurrentStress: open/write/unlink/close churn with multiple
// pins per inode must neither leak blocks nor double-free.
func TestRefFDConcurrentStress(t *testing.T) {
	fs := New(WithBlocks(2048))
	if err := fs.Mkdir(tctx, "/d"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				p := fmt.Sprintf("/d/f%d-%d", w, i%3)
				fs.Mknod(tctx, p)
				fd1, err1 := fs.OpenRef(tctx, p)
				fd2, err2 := fs.OpenRef(tctx, p)
				if err1 == nil {
					fd1.WriteAt(tctx, bytes.Repeat([]byte{byte(i)}, 4096), 0)
				}
				fs.Unlink(tctx, p)
				if err2 == nil {
					buf := make([]byte, 64)
					fd2.ReadAt(tctx, buf, 0)
					fd2.Close()
				}
				if err1 == nil {
					fd1.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := fs.Check(); err != nil {
		t.Fatal(err)
	}
	if n := fs.BlocksInUse(); n != 0 {
		t.Fatalf("leaked %d blocks", n)
	}
}

// TestRefFDPinKeepsMonitorRelationSound: a monitored del of an open file
// must not break the abstract-concrete relation — the pinned inode is
// unreachable from the root, so the tree comparison ignores it.
func TestRefFDPinKeepsMonitorRelationSound(t *testing.T) {
	mon := newMon()
	fs := New(WithMonitor(mon))
	fs.Mknod(tctx, "/f")
	fd, err := fs.OpenRef(tctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink(tctx, "/f"); err != nil {
		t.Fatal(err)
	}
	if err := mon.Quiesce(); err != nil {
		t.Fatalf("relation broken by pinned inode: %v", err)
	}
	requireClean(t, mon)
	fd.Close()
}

// TestHandleRead covers the naive direct handle's read path (the
// Figure-9 demonstration object).
func TestHandleRead(t *testing.T) {
	fs := New()
	fs.Mknod(tctx, "/f")
	fs.Write(tctx, "/f", 0, []byte("direct read"))
	h, err := fs.OpenDirect(tctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	data, err := h.Read(tctx, 7, 4)
	if err != nil || string(data) != "read" {
		t.Fatalf("read = %q %v", data, err)
	}
	if _, err := h.Read(tctx, -1, 4); !errors.Is(err, fserr.ErrInvalid) {
		t.Fatalf("negative read = %v", err)
	}
	fs.Mkdir(tctx, "/d")
	hd, err := fs.OpenDirect(tctx, "/d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hd.Read(tctx, 0, 1); !errors.Is(err, fserr.ErrIsDir) {
		t.Fatalf("dir read = %v", err)
	}
	if _, err := h.Readdir(tctx); !errors.Is(err, fserr.ErrNotDir) {
		t.Fatalf("file readdir = %v", err)
	}
	if _, err := fs.OpenDirect(tctx, "/missing"); !errors.Is(err, fserr.ErrNotExist) {
		t.Fatalf("open missing = %v", err)
	}
}
