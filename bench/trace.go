package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// counts reads every count the per-layer metrics use: the registry's
// counters summed over their labels, and what the layers keep outside
// the registry.
func (st *stack) counts() map[string]float64 {
	m := map[string]float64{}
	st.reg.EachCounter(func(name string, c *obs.Counter) {
		base, _, _ := strings.Cut(name, "{")
		m[base] += float64(c.Value())
	})
	m["atomfs_lock_wait_ns"] = float64(st.reg.Histogram("atomfs_lock_wait_ns").Snapshot().Sum)
	for _, v := range st.vols {
		h, f := v.fs.FastPathStats()
		m["fast_hits"] += float64(h)
		m["fast_falls"] += float64(f)
		ph, pm, _ := v.fs.PrefixCacheStats()
		m["prefix_hits"] += float64(ph)
		m["prefix_misses"] += float64(pm)
		if v.mon != nil {
			m["helped"] += float64(v.mon.Stats().Helped)
		}
		if v.dev != nil {
			m["dev_written"] += float64(v.dev.Written())
			m["dev_syncs"] += float64(v.dev.Syncs())
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["mallocs"] = float64(ms.Mallocs)
	m["gc_pause_ns"] = float64(ms.PauseTotalNs)
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// request is one client call with the time each in-situ layer spent on
// it itself: its span minus the spans below it.
type request struct {
	id                         uint64
	total, fuse, mount, volume int64
}

// breakdown groups spans into requests and returns them with the spans
// that belong to one, Req set. Spans made in one process name their
// parent through the context. A client span and the mount span it caused
// are on opposite ends of the wire, so they are matched by what they
// share: the op, the path, and the mount span lying inside the client
// span. A client has one request in flight, so at most one span per
// client can contain it, and two clients issuing the same op on the same
// path at once are interchangeable. wire false means there is no fuse
// and the mount span is the whole request.
func breakdown(clients []*client, spans []span, wire bool) (reqs []request, matched []span) {
	clientDur := map[uint64]int64{}
	for _, c := range clients {
		for _, sp := range c.fs.own {
			clientDur[sp.ID] = sp.End - sp.Start
		}
	}
	taken := map[uint64]bool{}
	reqOf := map[uint64]int{} // mount span ID -> index in reqs
	for _, sp := range spans {
		if sp.Layer != layerMount {
			continue
		}
		if sp.Parent == 0 {
			sp.Parent = acrossWire(clients, sp, taken)
		}
		total, ok := clientDur[sp.Parent]
		if !ok {
			continue // its client span began outside the window
		}
		taken[sp.Parent] = true
		sp.Req = sp.Parent
		if !wire {
			total = sp.End - sp.Start
		}
		reqOf[sp.ID] = len(reqs)
		reqs = append(reqs, request{id: sp.Req, total: total, mount: sp.End - sp.Start})
		matched = append(matched, sp)
	}
	for _, sp := range spans {
		if sp.Layer != layerVolume {
			continue
		}
		i, ok := reqOf[sp.Parent]
		if !ok {
			continue
		}
		sp.Req = reqs[i].id
		reqs[i].volume += sp.End - sp.Start
		matched = append(matched, sp)
	}
	for _, c := range clients {
		for _, sp := range c.fs.own {
			if taken[sp.ID] {
				matched = append(matched, sp)
			}
		}
	}
	for i := range reqs {
		r := &reqs[i]
		r.fuse = r.total - r.mount
		r.mount -= r.volume
	}
	return reqs, matched
}

// acrossWire finds the client span that caused mount span sp.
func acrossWire(clients []*client, sp span, taken map[uint64]bool) uint64 {
	for _, c := range clients {
		own := c.fs.own
		i := sort.Search(len(own), func(i int) bool { return own[i].Start > sp.Start }) - 1
		if i >= 0 && sp.End <= own[i].End && own[i].Op == sp.Op && own[i].Path == sp.Path && !taken[own[i].ID] {
			return own[i].ID
		}
	}
	return 0
}

// inSitu is the mean time per request of each in-situ layer, in ns, and
// which of them owns the slowest 0.1% of requests.
type inSitu struct {
	n                          int
	total, fuse, mount, volume float64
	tailOwner                  string
	tailShare                  map[string]float64
}

func summarize(reqs []request) inSitu {
	s := inSitu{n: len(reqs), tailShare: map[string]float64{}}
	if s.n == 0 {
		return s
	}
	for _, r := range reqs {
		s.total += float64(r.total)
		s.fuse += float64(r.fuse)
		s.mount += float64(r.mount)
		s.volume += float64(r.volume)
	}
	n := float64(s.n)
	s.total, s.fuse, s.mount, s.volume = s.total/n, s.fuse/n, s.mount/n, s.volume/n

	sort.Slice(reqs, func(a, b int) bool { return reqs[a].total > reqs[b].total })
	var sum float64
	for _, r := range reqs[:(s.n+999)/1000] {
		s.tailShare["fuse"] += float64(r.fuse)
		s.tailShare["mount"] += float64(r.mount)
		s.tailShare["volume"] += float64(r.volume)
		sum += float64(r.total)
	}
	for name, v := range s.tailShare {
		s.tailShare[name] = 100 * v / sum
		if s.tailOwner == "" || s.tailShare[name] > s.tailShare[s.tailOwner] {
			s.tailOwner = name
		}
	}
	return s
}

// perLayer is what one traced run reports.
type perLayer struct {
	Metrics map[string]float64 `json:"metrics"`

	Requests   int                `json:"requests"`   // requests traced
	MeanUs     float64            `json:"mean_us"`    // traced mean request time; the shares are of this
	LadderUs   [3]float64         `json:"ladder_us"`  // volume time per request at each rung
	TailOwner  string             `json:"tail_owner"` // layer with the most self time in the slowest 0.1%
	TailShare  map[string]float64 `json:"tail_share"` // % of those requests' time, by in-situ layer
	RefOpsPerS float64            `json:"ref_ops_per_s"`
	OpsPerS    float64            `json:"ops_per_s"` // traced
	TraceFile  string             `json:"trace_file"`

	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Fails     []string `json:"fails,omitempty"`
}

// tracedRun gives the per-layer numbers for one workload. It measures an
// untraced reference window and a traced window on two stacks built the
// same way, then replays the ladder.
func tracedRun(ctx context.Context, w *workload, p params, traceOut string) (*perLayer, error) {
	p.window = p.traceWindow
	res := &perLayer{Metrics: map[string]float64{}}
	m := res.Metrics

	st, t, err := setup(ctx, w, p, rungJournaled, nil, w.wireClients(p))
	if err != nil {
		return nil, err
	}
	clients := drive(ctx, w, st, t, nil, p, nil, nil)
	res.RefOpsPerS, _, _, _ = reduce(clients, p)
	res.Fails, res.Failed, _ = finish(ctx, st, t, p.seed, clients)
	st.close()

	tr := newTracer()
	if st, t, err = setup(ctx, w, p, rungJournaled, tr, w.wireClients(p)); err != nil {
		return nil, err
	}
	var before, after map[string]float64
	clients = drive(ctx, w, st, t, tr, p, func() { before = st.counts() }, func() { after = st.counts() })
	d := func(name string) float64 { return after[name] - before[name] }
	res.OpsPerS, _, _, res.Attempted = reduce(clients, p)
	fails, failed, recoverTime := finish(ctx, st, t, p.seed, clients)
	res.Fails, res.Failed = append(res.Fails, fails...), res.Failed+failed
	st.close()

	reqs, matched := breakdown(clients, tr.spans, w.wire)
	s := summarize(reqs)
	res.Requests, res.MeanUs, res.TailOwner, res.TailShare = s.n, s.total/1e3, s.tailOwner, s.tailShare
	if s.n == 0 {
		return nil, fmt.Errorf("%s: the traced window matched no request", w.name)
	}

	// The spans are written and everything the window used is dropped
	// before the ladder, so that each rung's heap holds its own stack only.
	res.TraceFile = traceOut
	if err := writeSpans(traceOut, matched); err != nil {
		return nil, err
	}
	st, t, tr.spans, clients, reqs, matched = nil, nil, nil, nil, nil, nil
	lad, err := ladder(ctx, w, p)
	if err != nil {
		return nil, err
	}
	res.Fails = append(res.Fails, lad.fails...)
	for r, ns := range lad.volume {
		res.LadderUs[r] = ns / 1e3
	}

	// The in-situ volume time, split in the ladder's proportions.
	bare, mon, jour := lad.volume[rungBare], lad.volume[rungMonitored], lad.volume[rungJournaled]
	if mon < bare {
		mon = bare
	}
	if jour < mon {
		jour = mon
	}
	self := map[string]float64{
		"fuse": s.fuse, "mount": s.mount,
		"atomfs": s.volume * bare / jour, "core": s.volume * (mon - bare) / jour, "wal": s.volume * (jour - mon) / jour,
	}
	for name, ns := range self {
		m[name+".self_us"] = ns / 1e3
		m[name+".share"] = 100 * ns / s.total
	}
	m["ladder_fit"] = ratio(jour, s.volume)
	m["trace_overhead_pct"] = 100 * (res.RefOpsPerS - res.OpsPerS) / res.RefOpsPerS

	ops := float64(res.Attempted)
	m["fuse.frames_per_flush"] = ratio(d("fuse_writer_frames_total"), d("fuse_writer_flushes_total"))
	m["fuse.wire_bytes_per_op"] = ratio(d("fuse_bytes_read_total")+d("fuse_bytes_written_total"), ops)
	m["fuse.rejected"] = d("atomfs_fuse_rejected_total")
	m["mount.cross_renames"] = float64(tr.cross.Load())
	m["atomfs.fastpath_hit_ratio"] = ratio(d("fast_hits"), d("fast_hits")+d("fast_falls"))
	m["atomfs.prefix_hit_ratio"] = ratio(d("prefix_hits"), d("prefix_hits")+d("prefix_misses"))
	m["atomfs.lock_wait_us_per_op"] = ratio(d("atomfs_lock_wait_ns"), ops) / 1e3
	m["core.helped"] = d("helped")
	m["core.violations"] = d("core_violations_total")
	m["wal.bytes_per_user_byte"] = lad.bytesPerUserByte
	m["wal.flushes_per_mutation"] = lad.flushesPerMutation
	m["wal.records_per_flush"] = ratio(d("wal_batched_records_total"), d("wal_commits_total"))
	m["wal.checkpoints"] = d("wal_checkpoints_total")
	m["wal.recover_ms"] = recoverTime.Seconds() * 1e3
	m["proc.allocs_per_op"] = ratio(d("mallocs"), ops)
	m["proc.gc_pause_ms"] = d("gc_pause_ns") / 1e6
	return res, nil
}

type ladderResult struct {
	volume             [3]float64 // ns of volume time per request, by rung
	bytesPerUserByte   float64
	flushesPerMutation float64
	fails              []string
}

// ladder replays client 0's op stream, a fixed number of ops, in process
// against the namespace built at each rung. With one client and no timers
// the journaled rung's byte and flush counts repeat exactly, so the two
// write-amplification ratios are taken here.
func ladder(ctx context.Context, w *workload, p params) (*ladderResult, error) {
	res := &ladderResult{}
	for r := rungBare; r <= rungJournaled; r++ {
		tr := newTracer()
		st, t, err := setup(ctx, w, p, r, tr, 0)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		before := st.counts()
		c := newClient(0, st.top, tr, nil, t, p.seed)
		for len(c.fs.own) < w.ladderOps/p.ladderDiv {
			w.iterate(c, ctx)
		}
		after := st.counts()
		reqs, _ := breakdown([]*client{c}, tr.spans, false)
		res.volume[r] = summarize(reqs).volume
		if r == rungJournaled {
			res.bytesPerUserByte = ratio(after["dev_written"]-before["dev_written"], float64(c.userBytes))
			res.flushesPerMutation = ratio(after["dev_syncs"]-before["dev_syncs"], after["wal_appends_total"]-before["wal_appends_total"])
		}
		fails, _, _ := finish(ctx, st, t, p.seed, []*client{c})
		for _, f := range fails {
			res.fails = append(res.fails, "ladder "+rungNames[r]+": "+f)
		}
		st.close()
	}
	return res, nil
}

// writeSpans writes one JSON object per span: name, start, end, parent
// and the request's id.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for _, sp := range spans {
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendUint(b, sp.ID, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, sp.Parent, 10)
		b = append(b, `,"req":`...)
		b = strconv.AppendUint(b, sp.Req, 10)
		b = append(b, `,"name":"`...)
		b = append(b, layerNames[sp.Layer]...)
		b = append(b, `","op":"`...)
		b = append(b, sp.Op.String()...)
		b = append(b, `","vol":`...)
		b = strconv.AppendInt(b, int64(sp.Vol), 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, sp.Start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, sp.End, 10)
		b = append(b, `,"path":`...)
		b = strconv.AppendQuote(b, sp.Path)
		b = append(b, "}\n"...)
		w.Write(b)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
