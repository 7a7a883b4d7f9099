package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomfs"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/spec"
)

// Every layer's top is a public fsapi.FS, so the benchmark times layers
// from outside with one shim type, spanFS, placed at three boundaries:
// around the client's entry (fuse.Client, or the namespace when there is
// no wire), between fuse.Server and mount.NS, and between mount.NS and
// each volume. With tracing off only the client shim exists and it only
// records latencies.
type layer uint8

const (
	layerClient layer = iota
	layerMount
	layerVolume
)

var layerNames = [...]string{"client", "mount", "volume"}

// epoch is the zero of every timestamp the benchmark records.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

type span struct {
	ID     uint64
	Parent uint64 // 0 on a client span
	Req    uint64 // the client span's ID, on every span of one request
	Layer  layer
	Op     spec.Op
	Vol    int8 // volume index on a volume span
	Start  int64
	End    int64
	Path   string
}

// tracer keeps spans in memory. Mount and volume spans come from the
// server's request goroutines and share one slice; each client appends to
// its own.
type tracer struct {
	nextID atomic.Uint64
	from   atomic.Int64 // spans that start outside [from, to) are dropped
	to     atomic.Int64

	mu    sync.Mutex
	spans []span

	cross atomic.Int64 // two-phase cross-volume renames seen by the volume shims
}

func newTracer() *tracer {
	t := &tracer{}
	t.to.Store(1<<63 - 1)
	return t
}

func (t *tracer) window(from, to int64) {
	t.from.Store(from)
	t.to.Store(to)
}

func (t *tracer) open(at int64) bool { return at >= t.from.Load() && at < t.to.Load() }

type spanKey struct{}

// spanFS times every call into inner. With a tracer it also records a
// span, and hands its span ID down through the context so that the next
// shim below (in the same process) names it as parent.
type spanFS struct {
	inner fsapi.FS
	layer layer
	vol   int8
	tr    *tracer
	lat   *latLog // client shim only
	own   []span  // client shim only: its spans, appended without locking
}

type callStart struct {
	start      int64
	id, parent uint64
}

func (s *spanFS) begin(ctx context.Context) (context.Context, callStart) {
	c := callStart{start: now()}
	if s.tr != nil {
		c.id = s.tr.nextID.Add(1)
		c.parent, _ = ctx.Value(spanKey{}).(uint64)
		ctx = context.WithValue(ctx, spanKey{}, c.id)
	}
	return ctx, c
}

func (s *spanFS) end(c callStart, op spec.Op, path string) {
	end := now()
	if s.lat != nil {
		s.lat.add(c.start, end)
	}
	t := s.tr
	if t == nil || !t.open(c.start) {
		return
	}
	sp := span{ID: c.id, Parent: c.parent, Layer: s.layer, Op: op, Vol: s.vol, Start: c.start, End: end, Path: path}
	if s.layer == layerClient {
		sp.Req = sp.ID
		s.own = append(s.own, sp)
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

func (s *spanFS) Mknod(ctx context.Context, path string) error {
	ctx, c := s.begin(ctx)
	err := s.inner.Mknod(ctx, path)
	s.end(c, spec.OpMknod, path)
	return err
}

func (s *spanFS) Mkdir(ctx context.Context, path string) error {
	ctx, c := s.begin(ctx)
	err := s.inner.Mkdir(ctx, path)
	s.end(c, spec.OpMkdir, path)
	return err
}

func (s *spanFS) Rmdir(ctx context.Context, path string) error {
	ctx, c := s.begin(ctx)
	err := s.inner.Rmdir(ctx, path)
	s.end(c, spec.OpRmdir, path)
	return err
}

func (s *spanFS) Unlink(ctx context.Context, path string) error {
	ctx, c := s.begin(ctx)
	err := s.inner.Unlink(ctx, path)
	s.end(c, spec.OpUnlink, path)
	return err
}

func (s *spanFS) Rename(ctx context.Context, src, dst string) error {
	ctx, c := s.begin(ctx)
	err := s.inner.Rename(ctx, src, dst)
	s.end(c, spec.OpRename, src)
	return err
}

func (s *spanFS) Stat(ctx context.Context, path string) (fsapi.Info, error) {
	ctx, c := s.begin(ctx)
	info, err := s.inner.Stat(ctx, path)
	s.end(c, spec.OpStat, path)
	return info, err
}

func (s *spanFS) Read(ctx context.Context, path string, off int64, dst []byte) (int, error) {
	ctx, c := s.begin(ctx)
	n, err := s.inner.Read(ctx, path, off, dst)
	s.end(c, spec.OpRead, path)
	return n, err
}

func (s *spanFS) Write(ctx context.Context, path string, off int64, data []byte) (int, error) {
	ctx, c := s.begin(ctx)
	n, err := s.inner.Write(ctx, path, off, data)
	s.end(c, spec.OpWrite, path)
	return n, err
}

func (s *spanFS) Truncate(ctx context.Context, path string, size int64) error {
	ctx, c := s.begin(ctx)
	err := s.inner.Truncate(ctx, path, size)
	s.end(c, spec.OpTruncate, path)
	return err
}

func (s *spanFS) Readdir(ctx context.Context, path string) ([]string, error) {
	ctx, c := s.begin(ctx)
	names, err := s.inner.Readdir(ctx, path)
	s.end(c, spec.OpReaddir, path)
	return names, err
}

func (t *tracer) mount(ns fsapi.FS) fsapi.FS {
	return &spanFS{inner: ns, layer: layerMount, tr: t}
}

// volShim is the volume boundary. mount.NS compares volumes by identity
// and asks them for atomfs.CrossVolume, so there is one *volShim per
// volume and it forwards the two-phase halves: a cross-volume rename
// stays the helped protocol instead of falling back to copy+delete.
type volShim struct {
	*spanFS
	cross atomfs.CrossVolume
}

var _ atomfs.CrossVolume = (*volShim)(nil)

func (t *tracer) volume(i int, v atomfs.CrossVolume) fsapi.FS {
	return &volShim{spanFS: &spanFS{inner: v, layer: layerVolume, vol: int8(i), tr: t}, cross: v}
}

func (v *volShim) DetachPrepare(ctx context.Context, path string, rec *core.CrossRecord) (atomfs.CrossDetach, error) {
	ctx, c := v.begin(ctx)
	det, err := v.cross.DetachPrepare(ctx, path, rec)
	v.end(c, spec.OpDetach, path)
	if err != nil {
		return nil, err
	}
	if v.tr.open(c.start) {
		v.tr.cross.Add(1)
	}
	return &timedDetach{CrossDetach: det, v: v, parent: c.parent, path: path}, nil
}

func (v *volShim) AttachCommit(ctx context.Context, path string, rec *core.CrossRecord) error {
	ctx, c := v.begin(ctx)
	err := v.cross.AttachCommit(ctx, path, rec)
	v.end(c, spec.OpAttach, path)
	return err
}

// timedDetach charges the source half's completion to the source volume,
// under the same mount span as its prepare.
type timedDetach struct {
	atomfs.CrossDetach
	v      *volShim
	parent uint64
	path   string
}

func (d *timedDetach) Complete(commitErr error) error {
	c := callStart{start: now(), id: d.v.tr.nextID.Add(1), parent: d.parent}
	err := d.CrossDetach.Complete(commitErr)
	d.v.end(c, spec.OpDetach, d.path)
	return err
}
