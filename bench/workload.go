package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/fsapi"
	"repro/internal/spec"
	wl "repro/internal/workload"
)

// treeSize is the population of one volume for the net-* workloads:
// dirs directories /v<k>/d<nn>/sub, each holding files files of fileSize
// bytes named f<nnn>. The full size is 4 volumes x 16 x 64 x 4 KiB =
// 4096 files, 16 MiB, depth 4: it fits the ramdisk and every prefix fits
// the prefix cache.
type treeSize struct{ dirs, files int }

var (
	fullTree  = treeSize{dirs: 16, files: 64}
	smokeTree = treeSize{dirs: 4, files: 16}
)

const (
	fileSize   = 4096
	appendSize = 1024
	writeSize  = 1024
)

// tree holds the population's path strings, made once so that the client
// loops format nothing.
type tree struct {
	size  treeSize
	dirs  [nVolumes][]string   // /v<k>/d<nn>/sub
	files [nVolumes][][]string // /v<k>/d<nn>/sub/f<nnn>
}

func newTree(size treeSize) *tree {
	t := &tree{size: size}
	for k := 0; k < nVolumes; k++ {
		for d := 0; d < size.dirs; d++ {
			dir := fmt.Sprintf("/v%d/d%02d/sub", k, d)
			t.dirs[k] = append(t.dirs[k], dir)
			var fs []string
			for f := 0; f < size.files; f++ {
				fs = append(fs, fmt.Sprintf("%s/f%03d", dir, f))
			}
			t.files[k] = append(t.files[k], fs)
		}
	}
	return t
}

// patternKey names the content of one generation of one file under one
// seed; fill expands it. Every byte the benchmark writes comes from here,
// so every byte it reads back can be checked.
func patternKey(seed int64, path string, gen uint64) uint64 {
	h := uint64(14695981039346656037) ^ uint64(seed)*0x9e3779b97f4a7c15 ^ gen*0xbf58476d1ce4e5b9
	for i := 0; i < len(path); i++ {
		h = (h ^ uint64(path[i])) * 1099511628211
	}
	return h
}

func fill(buf []byte, key uint64) {
	x := key | 1
	var word [8]byte
	for i := 0; i < len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(word[:], x)
		copy(buf[i:], word[:])
	}
}

// populate builds the tree through the namespace, in process: journaled,
// monitored and checkpointed like any other mutation.
func populate(ctx context.Context, fs fsapi.FS, t *tree, seed int64) error {
	buf := make([]byte, fileSize)
	for k := 0; k < nVolumes; k++ {
		for d, dir := range t.dirs[k] {
			if err := fs.Mkdir(ctx, strings.TrimSuffix(dir, "/sub")); err != nil {
				return err
			}
			if err := fs.Mkdir(ctx, dir); err != nil {
				return err
			}
			for _, p := range t.files[k][d] {
				if err := fs.Mknod(ctx, p); err != nil {
					return err
				}
				fill(buf, patternKey(seed, p, 0))
				if _, err := fs.Write(ctx, p, 0, buf); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// verifyTree walks the whole namespace and reports every difference from
// the seeded population (from nothing but the mount points, when t is
// nil). Every workload leaves the tree as it found it, so this runs after
// every window.
func verifyTree(ctx context.Context, fs fsapi.FS, t *tree, seed int64) []string {
	want := map[string]bool{}
	wantDirs := nVolumes
	if t != nil {
		for k := 0; k < nVolumes; k++ {
			for _, files := range t.files[k] {
				for _, p := range files {
					want[p] = true
				}
			}
		}
		wantDirs += nVolumes * 2 * t.size.dirs
	}
	var fails []string
	dirs := 0
	buf := make([]byte, fileSize+1)
	exp := make([]byte, fileSize)
	var walk func(dir string)
	walk = func(dir string) {
		names, err := fs.Readdir(ctx, dir)
		if err != nil {
			fails = append(fails, fmt.Sprintf("readdir %s: %v", dir, err))
			return
		}
		for _, name := range names {
			p := strings.TrimSuffix(dir, "/") + "/" + name
			info, err := fs.Stat(ctx, p)
			if err != nil {
				fails = append(fails, fmt.Sprintf("stat %s: %v", p, err))
				continue
			}
			if info.Kind == spec.KindDir {
				dirs++
				walk(p)
				continue
			}
			if !want[p] {
				fails = append(fails, "stray file "+p)
				continue
			}
			delete(want, p)
			n, err := fs.Read(ctx, p, 0, buf)
			fill(exp, patternKey(seed, p, 0))
			if err != nil || !bytes.Equal(buf[:n], exp) {
				fails = append(fails, fmt.Sprintf("%s: content differs from the seeded pattern (n=%d err=%v)", p, n, err))
			}
		}
	}
	walk("/")
	for p := range want {
		fails = append(fails, "missing file "+p)
	}
	if dirs != wantDirs {
		fails = append(fails, fmt.Sprintf("%d directories, want %d", dirs, wantDirs))
	}
	sort.Strings(fails)
	return fails
}

// workload is one traffic mix. Each client runs iterate until the window
// closes; an iteration always runs to its end and leaves the tree as it
// found it.
type workload struct {
	name string
	why  string
	// wire: clients are fuse.Clients on TCP loopback, min(NumCPU, 4) of
	// them; otherwise one client calls the namespace in process.
	wire     bool
	populate bool
	iterate  func(c *client, ctx context.Context)
	// prime iterations run during set-up, before the warm-up.
	prime int
	// ladderOps is the fixed length of the ladder's replay, in ops
	// (rounded up to whole iterations).
	ladderOps int
}

var workloads = []*workload{
	{
		name: "net-read", wire: true, populate: true, iterate: (*client).netRead, ladderOps: 300000,
		why: "75% stat, 20% read 4 KiB, 5% readdir over the wire: fuse does about 3/4 of the work and wal none, so a wire or resolve change moves it and a journal change must not",
	},
	{
		name: "net-write", wire: true, populate: true, iterate: (*client).netWrite, ladderOps: 40000,
		why: "mknod, write 1 KiB, rename, unlink over the wire with every ack durable: core and wal bound throughput and checkpoints own the tail; the mirror of net-read",
	},
	{
		name: "net-fileserver", wire: true, populate: true, iterate: (*client).fileserver, ladderOps: 40000,
		why: "Fig. 11 fileserver flow with half the ops in one hot directory per volume and cross-volume renames: the only load with reads beside writes, helping and the two-phase path",
	},
	{
		name: "local-gitclone", iterate: (*client).gitClone, prime: nVolumes, ladderOps: 8 * gitCloneOps,
		why: "Fig. 10 git-clone trace then rm -r, in process with one client: no wire, larger writes, a fresh directory tree every iteration, journal counts that repeat exactly",
	},
}

// wireClients is how many fuse clients w's stack needs.
func (w *workload) wireClients(p params) int {
	if w.wire {
		return p.clients
	}
	return 0
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// client is one closed-loop caller: one connection, one request in
// flight. All its randomness comes from the seed and its index.
type client struct {
	id   int
	fs   *spanFS
	rng  *rand.Rand
	tree *tree
	seed int64
	iter uint64

	buf, want []byte
	// own[k][d] is this client's private file name in each directory, so
	// that no two clients ever create, rename or delete the same name
	// and no operation is expected to fail.
	own [nVolumes][]string

	userBytes int64 // payload bytes handed to Write
	failed    int64
	firstFail string
}

func newClient(id int, entry fsapi.FS, tr *tracer, lat *latLog, t *tree, seed int64) *client {
	c := &client{
		id:   id,
		fs:   &spanFS{inner: entry, layer: layerClient, tr: tr, lat: lat},
		rng:  rand.New(rand.NewSource(seed*1000003 + int64(id))),
		tree: t, seed: seed,
		buf: make([]byte, 2*fileSize), want: make([]byte, 2*fileSize),
	}
	if t != nil {
		for k := 0; k < nVolumes; k++ {
			for _, dir := range t.dirs[k] {
				c.own[k] = append(c.own[k], fmt.Sprintf("%s/c%d", dir, id))
			}
		}
	}
	return c
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstFail == "" {
		c.firstFail = fmt.Sprintf(format, args...)
	}
}

// ok counts a failure unless err is nil, and reports whether to go on.
func (c *client) ok(err error, what, path string) bool {
	if err != nil {
		c.fail("%s %s: %v", what, path, err)
		return false
	}
	return true
}

func (c *client) write(ctx context.Context, path string, off int64, n int, key uint64) {
	fill(c.buf[:n], key)
	c.userBytes += int64(n)
	got, err := c.fs.Write(ctx, path, off, c.buf[:n])
	if c.ok(err, "write", path) && got != n {
		c.fail("write %s: %d of %d bytes", path, got, n)
	}
}

// readCheck reads path whole and compares it with the concatenation of
// the patterns of keys, each of the given size.
func (c *client) readCheck(ctx context.Context, path string, sizes []int, keys []uint64) {
	total := 0
	for i, n := range sizes {
		fill(c.want[total:total+n], keys[i])
		total += n
	}
	n, err := c.fs.Read(ctx, path, 0, c.buf)
	if c.ok(err, "read", path) && !bytes.Equal(c.buf[:n], c.want[:total]) {
		c.fail("read %s: %d bytes differ from the seeded pattern", path, n)
	}
}

func (c *client) statCheck(ctx context.Context, path string, size int64) {
	info, err := c.fs.Stat(ctx, path)
	if c.ok(err, "stat", path) && (info.Kind != spec.KindFile || info.Size != size) {
		c.fail("stat %s: kind %v size %d, want a file of %d", path, info.Kind, info.Size, size)
	}
}

func (c *client) pick() (vol, dir int) {
	return c.rng.Intn(nVolumes), c.rng.Intn(c.tree.size.dirs)
}

// netRead is one read-only op, uniform over the tree.
func (c *client) netRead(ctx context.Context) {
	k, d := c.pick()
	f := c.rng.Intn(c.tree.size.files)
	path := c.tree.files[k][d][f]
	switch r := c.rng.Intn(100); {
	case r < 75:
		c.statCheck(ctx, path, fileSize)
	case r < 95:
		c.readCheck(ctx, path, []int{fileSize}, []uint64{patternKey(c.seed, path, 0)})
	default:
		dir := c.tree.dirs[k][d]
		names, err := c.fs.Readdir(ctx, dir)
		if c.ok(err, "readdir", dir) && len(names) != c.tree.size.files {
			c.fail("readdir %s: %d names, want %d", dir, len(names), c.tree.size.files)
		}
	}
}

// netWrite is one create/write/rename/unlink cycle in a uniformly chosen
// directory.
func (c *client) netWrite(ctx context.Context) {
	k, d := c.pick()
	a := c.own[k][d]
	b := a + "r"
	c.iter++
	if !c.ok(c.fs.Mknod(ctx, a), "mknod", a) {
		return
	}
	c.write(ctx, a, 0, writeSize, patternKey(c.seed, a, c.iter))
	c.ok(c.fs.Rename(ctx, a, b), "rename", a)
	c.ok(c.fs.Unlink(ctx, b), "unlink", b)
}

// fileserver is one pass of the Filebench fileserver flow on a file of
// the client's own: create and write whole, append, read whole, stat,
// list the directory, sometimes rename across volumes, delete. Half the
// passes go to directory 0 of a volume, the hot one, which every client
// shares.
func (c *client) fileserver(ctx context.Context) {
	k, d := c.pick()
	if c.rng.Intn(2) == 0 {
		d = 0
	}
	f := c.own[k][d]
	c.iter++
	whole, app := patternKey(c.seed, f, c.iter), patternKey(c.seed, f, ^c.iter)
	if !c.ok(c.fs.Mknod(ctx, f), "mknod", f) {
		return
	}
	c.write(ctx, f, 0, fileSize, whole)
	c.write(ctx, f, fileSize, appendSize, app)
	c.readCheck(ctx, f, []int{fileSize, appendSize}, []uint64{whole, app})
	c.statCheck(ctx, c.tree.files[k][d][c.rng.Intn(c.tree.size.files)], fileSize)
	dir := c.tree.dirs[k][d]
	names, err := c.fs.Readdir(ctx, dir)
	if c.ok(err, "readdir", dir) {
		name := f[len(dir)+1:]
		if i := sort.SearchStrings(names, name); i == len(names) || names[i] != name {
			c.fail("readdir %s: own file %s not listed", dir, name)
		}
	}
	// About one op in a hundred (one pass in fourteen) is a rename
	// across two volumes.
	if c.rng.Intn(14) == 0 {
		to := c.own[(k+1+c.rng.Intn(nVolumes-1))%nVolumes][d]
		if c.ok(c.fs.Rename(ctx, f, to), "cross-volume rename", f) {
			f = to
			c.statCheck(ctx, f, fileSize+appendSize)
		}
	}
	c.ok(c.fs.Unlink(ctx, f), "unlink", f)
}

// gitCloneOps is the length of one gitClone iteration in ops: the trace
// (67 mkdir, 1320 mknod, 1320 write, 20 rename), one checked read, and
// the rm -r (67 readdir, 1367 stat, 1301 unlink, 67 rmdir).
const gitCloneOps = 67 + 1320 + 1320 + 20 + 1 + 67 + 1367 + 1301 + 67

// gitClone replays the Fig. 10 git-clone trace into a fresh directory of
// the next volume, checks the index it wrote, and removes the clone.
func (c *client) gitClone(ctx context.Context) {
	root := fmt.Sprintf("/v%d/clone%d", (uint64(c.seed)+c.iter)%nVolumes, c.iter)
	c.iter++
	fs := &prefixFS{c, "/repo", root}
	func() {
		// The trace panics on any error.
		defer func() {
			if r := recover(); r != nil {
				c.fail("git-clone into %s: %v", root, r)
			}
		}()
		wl.GitClone(ctx, fs)
	}()
	// The trace's payload of tag 'i': byte j is 'i' + j%191.
	for j := 0; j < fileSize; j++ {
		c.want[j] = 'i' + byte(j%191)
	}
	index := root + "/.git/index"
	n, err := c.fs.Read(ctx, index, 0, c.buf)
	if c.ok(err, "read", index) && !bytes.Equal(c.buf[:n], c.want[:fileSize]) {
		c.fail("read %s: %d bytes differ from the trace's pattern", index, n)
	}
	files, dirs := c.removeAll(ctx, root)
	if files != 1301 || dirs != 67 {
		c.fail("rm -r %s removed %d files and %d directories, want 1301 and 67", root, files, dirs)
	}
}

func (c *client) removeAll(ctx context.Context, dir string) (files, dirs int) {
	names, err := c.fs.Readdir(ctx, dir)
	if !c.ok(err, "readdir", dir) {
		return 0, 0
	}
	for _, name := range names {
		p := dir + "/" + name
		info, err := c.fs.Stat(ctx, p)
		if !c.ok(err, "stat", p) {
			continue
		}
		if info.Kind == spec.KindDir {
			f, d := c.removeAll(ctx, p)
			files, dirs = files+f, dirs+d
		} else if c.ok(c.fs.Unlink(ctx, p), "unlink", p) {
			files++
		}
	}
	if c.ok(c.fs.Rmdir(ctx, dir), "rmdir", dir) {
		dirs++
	}
	return files, dirs
}

// prefixFS replaces the leading from of every path with to, so that a
// trace written for one fixed directory can be replayed anywhere through
// the client's timed entry.
type prefixFS struct {
	c        *client
	from, to string
}

func (p *prefixFS) at(path string) string { return p.to + strings.TrimPrefix(path, p.from) }

func (p *prefixFS) Mknod(ctx context.Context, path string) error {
	return p.c.fs.Mknod(ctx, p.at(path))
}
func (p *prefixFS) Mkdir(ctx context.Context, path string) error {
	return p.c.fs.Mkdir(ctx, p.at(path))
}
func (p *prefixFS) Rmdir(ctx context.Context, path string) error {
	return p.c.fs.Rmdir(ctx, p.at(path))
}
func (p *prefixFS) Unlink(ctx context.Context, path string) error {
	return p.c.fs.Unlink(ctx, p.at(path))
}
func (p *prefixFS) Rename(ctx context.Context, src, dst string) error {
	return p.c.fs.Rename(ctx, p.at(src), p.at(dst))
}
func (p *prefixFS) Stat(ctx context.Context, path string) (fsapi.Info, error) {
	return p.c.fs.Stat(ctx, p.at(path))
}
func (p *prefixFS) Read(ctx context.Context, path string, off int64, dst []byte) (int, error) {
	return p.c.fs.Read(ctx, p.at(path), off, dst)
}
func (p *prefixFS) Write(ctx context.Context, path string, off int64, data []byte) (int, error) {
	p.c.userBytes += int64(len(data))
	return p.c.fs.Write(ctx, p.at(path), off, data)
}
func (p *prefixFS) Truncate(ctx context.Context, path string, size int64) error {
	return p.c.fs.Truncate(ctx, p.at(path), size)
}
func (p *prefixFS) Readdir(ctx context.Context, path string) ([]string, error) {
	return p.c.fs.Readdir(ctx, p.at(path))
}
