// Command benchjson runs a performance-trajectory benchmark matrix
// outside `go test` and writes the results as JSON (one record per
// benchmark: name, ns/op, allocs/op, fast-path or prefix-cache counts,
// and sampled latency quantiles from the obs registry). Four suites:
//
//   - fastpath (default): the FastPath family plus Fig-10/Fig-11-style
//     workloads → BENCH_fastpath.json (`make bench-json`).
//   - writepath: the WritePath family — deep-tree create/unlink/rename
//     mixes, root lock-coupling vs. the prefix cache →
//     BENCH_writepath.json (`make bench-writepath`). cmd/benchdiff
//     compares a fresh run against the committed baseline in CI.
//   - shard: the sharded-namespace matrix (DESIGN.md §13) —
//     virtual-time simulated mutation scaling across volume counts
//     (the 4-volume cell must show at least 2x the 1-volume aggregate
//     throughput or the run fails), plus real-execution cells for the
//     mount table's resolve overhead and the two-phase cross-volume
//     rename cost → BENCH_shard.json (`make bench-shard`).
//   - wal: the durability matrix (DESIGN.md §14) — group commit vs
//     naive per-op flush under simulated fsync latency (the parallel
//     create cell must show at least 2x throughput from batching or the
//     run fails), the journal's CPU overhead against the bare ramdisk,
//     and recovery replay speed → BENCH_wal.json (`make wal-bench`).
//
// Usage:
//
//	benchjson                     # write BENCH_fastpath.json
//	benchjson -suite writepath    # write BENCH_writepath.json
//	benchjson -suite shard        # write BENCH_shard.json
//	benchjson -suite wal          # write BENCH_wal.json
//	benchjson -o out.json         # write elsewhere
//	benchjson -quick              # cheaper run (for smoke testing)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atomfs"
	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/memfs"
	"repro/internal/mount"
	"repro/internal/multicore"
	"repro/internal/obs"
	"repro/internal/retryfs"
	"repro/internal/wal"
	"repro/internal/workload"
)

// ctx is the tool's root context (mains are execution roots).
var ctx = context.Background()

type record struct {
	Name        string   `json:"name"`
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp int64    `json:"allocs_per_op"`
	HitRate     *float64 `json:"fastpath_hit_rate,omitempty"`
	// Prefix-cache stats (writepath suite, atomfs-prefix cells only).
	PrefixHitRate *float64 `json:"prefix_hit_rate,omitempty"`
	PrefixHits    *uint64  `json:"prefix_hits,omitempty"`
	PrefixInvals  *uint64  `json:"prefix_invalidations,omitempty"`
	// The following come from the obs registry when the system under test
	// carries one (the atomfs variants); absent otherwise.
	FastHits    *uint64 `json:"fastpath_hits,omitempty"`
	FastFalls   *uint64 `json:"fastpath_fallbacks,omitempty"`
	FastRetries *uint64 `json:"fastpath_seq_spins,omitempty"`
	FastVetoed  *uint64 `json:"fastpath_vetoed,omitempty"`
	// SimSpeedup is the simulated aggregate-throughput ratio of a
	// shard-sim cell against its suite's vols-1 baseline (shard suite
	// only; the cell's ns_per_op is virtual ticks per op, not wall ns).
	SimSpeedup *float64 `json:"sim_speedup_vs_vols1,omitempty"`
	// WAL stats (wal suite): journal appends, group-commit flushes, the
	// mean records retired per flush, and the group-commit cell's
	// throughput ratio over the naive per-op-flush cell.
	WalAppends  *uint64  `json:"wal_appends,omitempty"`
	WalCommits  *uint64  `json:"wal_commits,omitempty"`
	WalAvgBatch *float64 `json:"wal_avg_batch,omitempty"`
	WalSpeedup  *float64 `json:"wal_group_speedup_vs_nogroup,omitempty"`
	LatP50Ns    *float64 `json:"lat_p50_ns,omitempty"`
	LatP99Ns    *float64 `json:"lat_p99_ns,omitempty"`
	// Context-plumbing counters (fsapi v2): ops that aborted on a
	// cancelled context or an exceeded deadline during this cell.
	Cancelled        *uint64 `json:"cancelled,omitempty"`
	DeadlineExceeded *uint64 `json:"deadline_exceeded,omitempty"`
}

type report struct {
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoArch     string   `json:"goarch"`
	Results    []record `json:"results"`
	// CancellationFooter accumulates the per-op-type
	// atomfs_cancelled_total / atomfs_deadline_exceeded_total counters
	// across every instrumented cell, keyed by the full metric name
	// (including the {op=...} label).
	CancellationFooter map[string]uint64 `json:"cancellation_footer,omitempty"`
}

// cancelFooter collects the cancellation counters across cells; fillObs
// feeds it, main attaches it to the report.
var cancelFooter = map[string]uint64{}

// sysUnderTest couples a file system with the obs registry it reports
// into (nil for baselines without instrumentation).
type sysUnderTest struct {
	fs  fsapi.FS
	reg *obs.Registry
}

func atomfsSys(extra ...atomfs.Option) sysUnderTest {
	reg := obs.NewRegistry()
	opts := append([]atomfs.Option{atomfs.WithObs(reg)}, extra...)
	return sysUnderTest{fs: atomfs.New(opts...), reg: reg}
}

func main() {
	out := flag.String("o", "", "output file (default BENCH_<suite>.json)")
	quick := flag.Bool("quick", false, "shorter runs (for smoke testing the tool)")
	suite := flag.String("suite", "fastpath", "benchmark suite: fastpath, writepath, shard, or wal")
	flag.Parse()

	var results []record
	switch *suite {
	case "fastpath":
		results = fastpathSuite(*quick)
	case "writepath":
		results = writepathSuite(*quick)
	case "shard":
		results = shardSuite(*quick)
	case "wal":
		results = walSuite(*quick)
	default:
		fmt.Fprintf(os.Stderr, "unknown suite %q (want fastpath, writepath, shard, or wal)\n", *suite)
		os.Exit(2)
	}

	rep := report{
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		GoArch:             runtime.GOARCH,
		Results:            results,
		CancellationFooter: cancelFooter,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	path := *out
	if path == "" {
		path = "BENCH_" + *suite + ".json"
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(results))
}

func fastpathSuite(quick bool) []record {
	systems := []struct {
		name string
		mk   func() sysUnderTest
	}{
		{"atomfs", func() sysUnderTest { return atomfsSys() }},
		{"atomfs-fastpath", func() sysUnderTest { return atomfsSys(atomfs.WithFastPath()) }},
		{"ext4~retryfs", func() sysUnderTest { return sysUnderTest{fs: retryfs.New()} }},
	}

	var results []record
	for _, s := range systems {
		results = append(results, benchFS("fastpath/read-mostly-95-5/"+s.name, s.mk, readMostly))
		results = append(results, benchFS("fastpath/stat-pure/"+s.name, s.mk, statPure))
	}
	// Cancellation cells: a quarter of the reads carry an already-expired
	// deadline, exercising the ctx admission poll and populating the
	// cancellation footer. Only the instrumented atomfs variants report.
	for _, s := range systems[:2] {
		results = append(results, benchFS("cancel/deadline-mix-75-25/"+s.name, s.mk, deadlineMix))
	}
	fig10 := append(systems, struct {
		name string
		mk   func() sysUnderTest
	}{"tmpfs~memfs", func() sysUnderTest { return sysUnderTest{fs: memfs.New()} }})
	for _, s := range fig10 {
		results = append(results, benchRuns("fig10/git-clone/"+s.name, s.mk, workload.GitClone))
	}
	if !quick {
		for _, s := range systems {
			results = append(results, benchFS("fig11/webproxy-4thr/"+s.name, s.mk, func(b *testing.B, fs fsapi.FS) {
				cfg := workload.WebproxyConfig{Files: 500, FileSize: 4 << 10, OpsPerThd: 500}
				workload.PrepareWebproxy(ctx, fs, cfg)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					workload.Webproxy(ctx, fs, cfg, 4)
				}
			}))
		}
	}
	return results
}

// shardSuite is the sharded-namespace matrix (DESIGN.md §13).
//
// The headline cells run on the virtual-time multicore simulator
// (internal/multicore.ShardSource): the claim under test — sharding the
// namespace into independent per-volume lock domains at least doubles
// aggregate mutation throughput at 4 volumes — is about multicore
// root-lock contention, and this container may have a single CPU, so
// the missing hardware is simulated exactly as Figure 11 is
// (cmd/fsbench figure11sim, per the substitution policy in DESIGN.md).
// Sim cells are deterministic; their ns_per_op is virtual ticks per
// operation, and the suite hard-fails if the 4-volume speedup drops
// below 2x — the shard tentpole's acceptance bar.
//
// The real-execution cells document what this hardware measures
// honestly: the mount table's longest-prefix resolve overhead (the same
// mutation loop on a flat volume vs a namespace wrapping one volume)
// and the two-phase cross-volume rename against a same-volume rename
// through the same namespace.
func shardSuite(quick bool) []record {
	costs := multicore.DefaultCosts()
	// Metadata-dominated namespace mutations: dispatch is small next to
	// the coupled root/dir sections (same calibration as the ShardSource
	// scaling test).
	costs.VFS = 400
	ops := 4000
	if quick {
		ops = 500
	}
	const simThreads = 16
	var results []record
	var baseTicks, speedup4 float64
	for _, vols := range []int{1, 2, 4} {
		res := multicore.Run(simThreads, ops, costs.ShardSource(vols, 64, 1024))
		ticksPerOp := float64(res.Makespan) / float64(res.Ops)
		rec := record{
			Name:    fmt.Sprintf("shard-sim/mutate-mix/%dthr/vols-%d", simThreads, vols),
			NsPerOp: ticksPerOp,
		}
		if vols == 1 {
			baseTicks = ticksPerOp
		} else {
			sp := baseTicks / ticksPerOp
			rec.SimSpeedup = &sp
			if vols == 4 {
				speedup4 = sp
			}
		}
		printRec(rec)
		results = append(results, rec)
	}
	if speedup4 < 2 {
		fmt.Fprintf(os.Stderr,
			"shard: 4-volume aggregate mutation throughput is %.2fx of 1 volume (need >= 2x)\n", speedup4)
		os.Exit(1)
	}
	fmt.Printf("shard-sim: 4-volume aggregate mutation throughput %.2fx of 1 volume (gate: >= 2x)\n", speedup4)

	results = append(results,
		benchFS("shard/resolve-overhead/flat-atomfs", func() sysUnderTest { return atomfsSys() }, createRename(4)),
		benchFS("shard/resolve-overhead/ns-1vol", func() sysUnderTest { return nsSys(1) }, createRename(4)),
		benchFS("shard/cross-rename/ns-2vol", func() sysUnderTest { return nsSys(2) }, crossRename),
		benchFS("shard/same-rename/ns-2vol", func() sysUnderTest { return nsSys(2) }, sameVolRename),
	)
	return results
}

// walSuite is the durability matrix (DESIGN.md §14).
//
// The headline claim — group commit amortizes the flush so concurrent
// committers see far better write throughput than a naive flush per
// operation — is about fsync latency, and this container's "device" is
// memory, so the flush is simulated: the journal device sleeps
// walFsyncDelay per Sync, the way a real WAL pays ~50µs for an NVMe
// flush. Both group-commit cells run the same 8-way parallel create
// loop; the suite hard-fails if batching does not at least double
// throughput over per-op flushing — the journal tentpole's acceptance
// bar.
//
// The overhead cells compare the bare monitored ramdisk against the
// journaled FS with a zero-latency device (the journal's CPU cost:
// encoding, shadow apply, ticket round-trip) and against the simulated
// device (what durability actually costs per op when uncontended). The
// recovery cell measures replaying a checkpoint-less journal tail.
func walSuite(quick bool) []record {
	const walFsyncDelay = 50 * time.Microsecond
	var results []record

	// Group commit vs naive per-op flush, 8 concurrent committers.
	nogroup := benchFS("wal/group-commit/parallel-create-8thr/nogroup",
		func() sysUnderTest { return walSys(walFsyncDelay, true) }, walParallelCreate)
	group := benchFS("wal/group-commit/parallel-create-8thr/group",
		func() sysUnderTest { return walSys(walFsyncDelay, false) }, walParallelCreate)
	speedup := nogroup.NsPerOp / group.NsPerOp
	group.WalSpeedup = &speedup
	results = append(results, nogroup, group)
	if speedup < 2 {
		fmt.Fprintf(os.Stderr,
			"wal: group commit is %.2fx of naive per-op flush (need >= 2x)\n", speedup)
		os.Exit(1)
	}
	fmt.Printf("wal: group-commit write throughput %.2fx of naive per-op flush (gate: >= 2x)\n", speedup)

	// Durable-vs-ramdisk matrix: the same sequential create/unlink loop
	// on the bare monitored FS, the journaled FS with a free flush, and
	// the journaled FS paying the simulated flush per commit.
	results = append(results,
		benchFS("wal/create-unlink/ramdisk", func() sysUnderTest { return monSys() }, createUnlink(4)),
		benchFS("wal/create-unlink/journal-nosync", func() sysUnderTest { return walSys(0, false) }, createUnlink(4)),
		benchFS("wal/create-unlink/journal-fsync50us", func() sysUnderTest { return walSys(walFsyncDelay, false) }, createUnlink(4)),
	)

	// Recovery replay: a journal of walRecoverRecords records, recovered
	// from the device bytes alone each iteration.
	records := 2000
	if quick {
		records = 200
	}
	results = append(results, benchWalRecover(records))
	return results
}

// monSys is the journal cells' control: the same monitor, no journal.
func monSys() sysUnderTest {
	reg := obs.NewRegistry()
	mon := core.NewMonitor(core.Config{Obs: reg})
	return sysUnderTest{fs: atomfs.New(atomfs.WithObs(reg), atomfs.WithMonitor(mon)), reg: reg}
}

// walSys builds a journaled, monitored atomfs over a device that sleeps
// syncDelay per flush. noGroup disables the group-commit batcher: every
// append pays its own flush inline.
func walSys(syncDelay time.Duration, noGroup bool) sysUnderTest {
	reg := obs.NewRegistry()
	dev := wal.NewDevice(block.NewStore(1<<16), syncDelay)
	l := wal.NewLog(dev, wal.Config{CheckpointEvery: 1 << 14, NoGroup: noGroup, Obs: reg})
	mon := core.NewMonitor(core.Config{Obs: reg})
	return sysUnderTest{
		fs:  atomfs.New(atomfs.WithObs(reg), atomfs.WithMonitor(mon), atomfs.WithJournal(l)),
		reg: reg,
	}
}

// walParallelCreate: 8 goroutines each creating distinct files — every
// op is a journaled mutation blocking on durability, so the cell
// measures committed-write throughput under concurrency.
func walParallelCreate(b *testing.B, fs fsapi.FS) {
	if err := fs.Mkdir(ctx, "/w"); err != nil {
		b.Fatal(err)
	}
	var ids atomic.Uint64
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := fs.Mknod(ctx, fmt.Sprintf("/w/f%d", ids.Add(1))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchWalRecover builds one journal of n records, then benchmarks
// recovering the abstract state from the device bytes alone (Recover is
// read-only, so the device is reused across iterations).
func benchWalRecover(n int) record {
	dev := wal.NewDevice(block.NewStore(1<<16), 0)
	l := wal.NewLog(dev, wal.Config{})
	mon := core.NewMonitor(core.Config{})
	fs := atomfs.New(atomfs.WithMonitor(mon), atomfs.WithJournal(l))
	if err := fs.Mkdir(ctx, "/w"); err != nil {
		panic(err)
	}
	for i := 0; i < n-1; i++ {
		if err := fs.Mknod(ctx, fmt.Sprintf("/w/f%d", i)); err != nil {
			panic(err)
		}
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := wal.Recover(dev, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	rec := record{
		Name:        fmt.Sprintf("wal/recover/replay-%d", n),
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
	}
	printRec(rec)
	return rec
}

// nsSys builds a namespace of n atomfs volumes — a root volume plus
// /v1../v(n-1) mounts — reporting into the root volume's registry.
func nsSys(n int) sysUnderTest {
	reg := obs.NewRegistry()
	ns := mount.New(atomfs.New(atomfs.WithObs(reg)))
	for i := 1; i < n; i++ {
		if err := ns.Mount(ctx, fmt.Sprintf("/v%d", i), atomfs.New()); err != nil {
			panic(err)
		}
	}
	return sysUnderTest{fs: ns, reg: reg}
}

// crossRename measures the two-phase helped protocol: each iteration
// creates in the root volume, renames across the /v1 mount (detach
// prepare + attach commit + source completion), and unlinks at the
// destination.
func crossRename(b *testing.B, fs fsapi.FS) {
	if err := fs.Mkdir(ctx, "/a"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.Mknod(ctx, "/a/x"); err != nil {
			b.Fatal(err)
		}
		if err := fs.Rename(ctx, "/a/x", "/v1/x"); err != nil {
			b.Fatal(err)
		}
		if err := fs.Unlink(ctx, "/v1/x"); err != nil {
			b.Fatal(err)
		}
	}
}

// sameVolRename is crossRename's control: the identical loop with the
// rename staying inside the root volume, through the same namespace.
func sameVolRename(b *testing.B, fs fsapi.FS) {
	if err := fs.Mkdir(ctx, "/a"); err != nil {
		b.Fatal(err)
	}
	if err := fs.Mkdir(ctx, "/b"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.Mknod(ctx, "/a/x"); err != nil {
			b.Fatal(err)
		}
		if err := fs.Rename(ctx, "/a/x", "/b/x"); err != nil {
			b.Fatal(err)
		}
		if err := fs.Unlink(ctx, "/b/x"); err != nil {
			b.Fatal(err)
		}
	}
}

// writepathSuite mirrors BenchmarkWritePath in internal/atomfs: mutation
// mixes at the bottom of a deep tree, root lock-coupling vs. the
// seqlock-validated prefix cache. The committed BENCH_writepath.json is
// the nightly regression baseline for cmd/benchdiff.
func writepathSuite(quick bool) []record {
	systems := []struct {
		name string
		mk   func() sysUnderTest
	}{
		{"atomfs", func() sysUnderTest { return atomfsSys() }},
		{"atomfs-prefix", func() sysUnderTest { return atomfsSys(atomfs.WithPrefixCache()) }},
	}
	depths := []int{4, 8, 12, 16}
	if quick {
		depths = []int{4, 8}
	}
	var results []record
	for _, depth := range depths {
		for _, s := range systems {
			results = append(results, benchFS(
				fmt.Sprintf("writepath/create-unlink/depth-%d/%s", depth, s.name),
				s.mk, createUnlink(depth)))
			results = append(results, benchFS(
				fmt.Sprintf("writepath/create-rename/depth-%d/%s", depth, s.name),
				s.mk, createRename(depth)))
		}
	}
	for _, s := range systems {
		results = append(results, benchFS("writepath/churn/depth-8/"+s.name, s.mk, churnMix))
	}
	return results
}

// createUnlink alternates Mknod/Unlink of one name at the bottom of a
// depth-deep chain.
func createUnlink(depth int) func(*testing.B, fsapi.FS) {
	return func(b *testing.B, fs fsapi.FS) {
		dir, _ := buildTree(b, fs, depth)
		x := dir + "/x"
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fs.Mknod(ctx, x); err != nil {
				b.Fatal(err)
			}
			if err := fs.Unlink(ctx, x); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// createRename adds a same-directory rename between the create and the
// unlink, so the rename's LCA walk rides the cache too.
func createRename(depth int) func(*testing.B, fsapi.FS) {
	return func(b *testing.B, fs fsapi.FS) {
		dir, _ := buildTree(b, fs, depth)
		x, y := dir+"/x", dir+"/y"
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fs.Mknod(ctx, x); err != nil {
				b.Fatal(err)
			}
			if err := fs.Rename(ctx, x, y); err != nil {
				b.Fatal(err)
			}
			if err := fs.Unlink(ctx, y); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// churnMix: parallel workers create, rename, and unlink over a bounded
// recycling namespace at depth 8 — entries are born, moved, and removed
// under live cache traffic, so some ops fail benignly.
func churnMix(b *testing.B, fs fsapi.FS) {
	dir, _ := buildTree(b, fs, 8)
	var ids atomic.Uint64
	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			id := ids.Add(1) % 512
			name := fmt.Sprintf("%s/c%d", dir, id)
			switch i % 4 {
			case 0, 1:
				fs.Mknod(ctx, name)
			case 2:
				fs.Rename(ctx, name, fmt.Sprintf("%s/r%d", dir, id))
			default:
				fs.Unlink(ctx, fmt.Sprintf("%s/r%d", dir, id))
			}
		}
	})
}

// fillObs extracts per-cell fast-path counters and sampled latency
// quantiles from the registry the system reported into during the final
// (longest) benchmark run.
func fillObs(rec *record, sut sysUnderTest) {
	if s, ok := sut.fs.(interface{ FastPathStats() (uint64, uint64) }); ok {
		if h, f := s.FastPathStats(); h+f > 0 {
			rate := float64(h) / float64(h+f)
			rec.HitRate = &rate
		}
	}
	if s, ok := sut.fs.(interface {
		PrefixCacheStats() (uint64, uint64, uint64)
	}); ok {
		if h, m, inv := s.PrefixCacheStats(); h+m > 0 {
			rate := float64(h) / float64(h+m)
			rec.PrefixHitRate = &rate
			rec.PrefixHits = &h
			if inv > 0 {
				rec.PrefixInvals = &inv
			}
		}
	}
	reg := sut.reg
	if reg == nil {
		return
	}
	if v, ok := reg.FuncValue("atomfs_fastpath_hits_total"); ok && v > 0 {
		u := uint64(v)
		rec.FastHits = &u
	}
	if v, ok := reg.FuncValue("atomfs_fastpath_fallbacks_total"); ok && v > 0 {
		u := uint64(v)
		rec.FastFalls = &u
	}
	if v := reg.Counter("atomfs_fastpath_seq_spins_total").Value(); v > 0 {
		rec.FastRetries = &v
	}
	if v, ok := reg.FuncValue("atomfs_fastpath_vetoed_total"); ok && v > 0 {
		u := uint64(v)
		rec.FastVetoed = &u
	}
	// Journal counters (wal suite cells only).
	if appends := reg.Counter("wal_appends_total").Value(); appends > 0 {
		rec.WalAppends = &appends
		commits := reg.Counter("wal_commits_total").Value()
		rec.WalCommits = &commits
		if commits > 0 {
			avg := float64(reg.Counter("wal_batched_records_total").Value()) / float64(commits)
			rec.WalAvgBatch = &avg
		}
	}
	// Cancellation counters: per-cell totals plus the report footer's
	// per-op-type breakdown.
	var cancelled, deadlined uint64
	reg.EachCounter(func(name string, c *obs.Counter) {
		v := c.Value()
		if v == 0 {
			return
		}
		switch {
		case strings.HasPrefix(name, "atomfs_cancelled_total"):
			cancelled += v
			cancelFooter[name] += v
		case strings.HasPrefix(name, "atomfs_deadline_exceeded_total"):
			deadlined += v
			cancelFooter[name] += v
		}
	})
	if cancelled > 0 {
		rec.Cancelled = &cancelled
	}
	if deadlined > 0 {
		rec.DeadlineExceeded = &deadlined
	}
	// Merge the per-op latency histograms into one per-cell distribution.
	// The samples are the obs layer's traced subset (all mutators plus
	// 1-in-N reads), so quantiles are estimates, not a census.
	var merged obs.HistSnapshot
	reg.EachHistogram(func(name string, h *obs.Histogram) {
		if strings.HasPrefix(name, "atomfs_op_latency_ns") {
			merged.Merge(h.Snapshot())
		}
	})
	if merged.Count > 0 {
		p50, p99 := merged.Quantile(0.50), merged.Quantile(0.99)
		rec.LatP50Ns, rec.LatP99Ns = &p50, &p99
	}
}

func printRec(rec record) {
	line := fmt.Sprintf("%-44s %10.1f ns/op %6d allocs/op", rec.Name, rec.NsPerOp, rec.AllocsPerOp)
	if rec.HitRate != nil {
		line += fmt.Sprintf("  hit=%.3f", *rec.HitRate)
	}
	if rec.SimSpeedup != nil {
		line += fmt.Sprintf("  sim_speedup=%.2fx", *rec.SimSpeedup)
	}
	if rec.PrefixHitRate != nil {
		line += fmt.Sprintf("  prefix_hit=%.3f", *rec.PrefixHitRate)
	}
	if rec.WalAvgBatch != nil {
		line += fmt.Sprintf("  wal_batch=%.1f", *rec.WalAvgBatch)
	}
	if rec.WalSpeedup != nil {
		line += fmt.Sprintf("  wal_speedup=%.2fx", *rec.WalSpeedup)
	}
	if rec.LatP50Ns != nil {
		line += fmt.Sprintf("  p50=%.0fns p99=%.0fns", *rec.LatP50Ns, *rec.LatP99Ns)
	}
	if rec.Cancelled != nil {
		line += fmt.Sprintf("  cancelled=%d", *rec.Cancelled)
	}
	if rec.DeadlineExceeded != nil {
		line += fmt.Sprintf("  deadline=%d", *rec.DeadlineExceeded)
	}
	fmt.Println(line)
}

// benchFS runs one benchmark body via testing.Benchmark and extracts
// ns/op, allocs/op, and the obs-derived per-cell stats of the final
// (longest) run.
func benchFS(name string, mk func() sysUnderTest, body func(*testing.B, fsapi.FS)) record {
	var sut sysUnderTest
	r := testing.Benchmark(func(b *testing.B) {
		sut = mk()
		body(b, sut.fs)
	})
	rec := record{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
	}
	fillObs(&rec, sut)
	printRec(rec)
	return rec
}

// benchRuns benchmarks a whole-workload run on a fresh file system per
// iteration (application workloads mutate the tree, so they cannot rerun
// in place).
func benchRuns(name string, mk func() sysUnderTest, run func(context.Context, fsapi.FS) workload.Result) record {
	var last sysUnderTest
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sut := mk()
			run(ctx, sut.fs)
			last = sut
		}
	})
	rec := record{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
	}
	fillObs(&rec, last)
	printRec(rec)
	return rec
}

// readMostly is the tentpole workload: 95% stats/reads of a depth-8 path,
// 5% namespace churn in the same directory, run with goroutine
// parallelism. It mirrors BenchmarkFastPath/read-mostly-95-5 in
// internal/atomfs/bench_test.go.
func readMostly(b *testing.B, fs fsapi.FS) {
	dir, file := buildTree(b, fs, 8)
	var ids atomic.Uint64
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		rbuf := make([]byte, 16)
		for pb.Next() {
			i++
			switch {
			case i%40 == 10:
				id := ids.Add(1)
				fs.Mknod(ctx, fmt.Sprintf("%s/m%d", dir, id))
			case i%40 == 30:
				fs.Unlink(ctx, fmt.Sprintf("%s/m%d", dir, ids.Load()))
			case i%2 == 0:
				if _, err := fs.Stat(ctx, file); err != nil {
					b.Error(err)
					return
				}
			default:
				if _, err := fs.Read(ctx, file, 0, rbuf); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}

// statPure isolates the per-operation traversal cost with no mutators.
func statPure(b *testing.B, fs fsapi.FS) {
	_, file := buildTree(b, fs, 8)
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := fs.Stat(ctx, file); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// deadlineMix: 75% plain reads, 25% reads carrying an already-expired
// deadline. The expired ones abort at the operation's first cancellation
// poll — before any inode lock — so the cell measures the admission-check
// overhead and feeds the cancellation footer.
func deadlineMix(b *testing.B, fs fsapi.FS) {
	_, file := buildTree(b, fs, 8)
	expired, cancel := context.WithDeadline(ctx, time.Unix(0, 0))
	defer cancel()
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rbuf := make([]byte, 16)
		i := 0
		for pb.Next() {
			i++
			if i%4 == 0 {
				if _, err := fs.Read(expired, file, 0, rbuf); err == nil {
					b.Error("expired-deadline read succeeded")
					return
				}
				continue
			}
			if _, err := fs.Read(ctx, file, 0, rbuf); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func buildTree(b *testing.B, fs fsapi.FS, depth int) (dir, file string) {
	for i := 0; i < depth; i++ {
		dir = fmt.Sprintf("%s/p%d", dir, i)
		if err := fs.Mkdir(ctx, dir); err != nil {
			b.Fatal(err)
		}
	}
	file = dir + "/f"
	if err := fs.Mknod(ctx, file); err != nil {
		b.Fatal(err)
	}
	if _, err := fs.Write(ctx, file, 0, []byte("0123456789abcdef")); err != nil {
		b.Fatal(err)
	}
	return dir, file
}
