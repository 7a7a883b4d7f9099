// Command fsbench regenerates the performance evaluation of the AtomFS
// paper (§7): Figure 10 (application workloads, single-threaded running
// times across file systems) and Figure 11 (multicore scalability of the
// Filebench Fileserver and Webproxy personalities).
//
// Usage:
//
//	fsbench -fig 10          # application workloads table
//	fsbench -fig 11a         # Fileserver scalability curves
//	fsbench -fig 11b         # Webproxy scalability curves
//	fsbench -fig 11c         # Varmail (extension personality, not in the paper)
//	fsbench -fig fair        # per-tenant fairness gate (exits 1 on failure)
//	fsbench -fig all         # everything
//	fsbench -fig 11a -threads 8 -quick
//	fsbench -fig 10 -csv     # CSV output for plotting
//
// Figure 11 executes the workloads for real at min(-threads, NumCPU)
// threads: its curves are only as tall as the host is wide.
//
// Absolute numbers depend on the host; the shapes are what reproduce the
// paper (see EXPERIMENTS.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/atomfs"
	"repro/internal/benchutil"
	"repro/internal/fsapi"
	"repro/internal/memfs"
	"repro/internal/obs"
	"repro/internal/retryfs"
	"repro/internal/slowfs"
	"repro/internal/workload"
)

// ctx is the tool's root context (mains are execution roots).
var ctx = context.Background()

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 10, 11a, 11b, 11c (extension: varmail), fair, all")
	maxThreads := flag.Int("threads", 16, "maximum thread count for figure 11 (capped at the host's CPU count)")
	depth := flag.Int("depth", 8, "directory depth for the deeppath cell in figure 10")
	quick := flag.Bool("quick", false, "scale workloads down for a fast smoke run")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables (for plotting)")
	flag.Parse()
	emitCSV = *csv

	threads := min(*maxThreads, runtime.NumCPU())
	switch *fig {
	case "10":
		figure10(*quick, *depth)
	case "11a":
		figure11("fileserver", threads, *quick)
	case "11b":
		figure11("webproxy", threads, *quick)
	case "11c":
		figure11("varmail", threads, *quick)
	case "fair":
		// A gate, not a figure: it carries an exit code, so "all" (used by
		// the figure-regeneration targets) does not include it.
		if !figureFairness(*quick) {
			os.Exit(1)
		}
	case "all":
		figure10(*quick, *depth)
		figure11("fileserver", threads, *quick)
		figure11("webproxy", threads, *quick)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

// emitCSV switches table rendering to CSV for external plotting.
var emitCSV bool

// figure10 reproduces the application-workload comparison. The paper's
// systems map to ours as: DFSCQ -> slowfs (extraction-overhead model),
// AtomFS -> atomfs, tmpfs -> memfs, ext4 -> retryfs (in-kernel VFS
// design). All workloads use a single core, as in the paper.
func figure10(quick bool, depth int) {
	fmt.Println("=== Figure 10: application workloads (single-threaded running time) ===")
	fo := newFigObs()
	systems := []struct {
		name string
		mk   func() fsapi.FS
	}{
		{"dfscq~slowfs", func() fsapi.FS { return slowfs.New(atomfs.New(atomfs.WithObs(fo.reg("dfscq~slowfs")))) }},
		{"atomfs", func() fsapi.FS { return atomfs.New(atomfs.WithObs(fo.reg("atomfs"))) }},
		{"atomfs-fastpath", func() fsapi.FS {
			return atomfs.New(atomfs.WithFastPath(), atomfs.WithObs(fo.reg("atomfs-fastpath")))
		}},
		{"atomfs-prefix", func() fsapi.FS {
			return atomfs.New(atomfs.WithPrefixCache(), atomfs.WithObs(fo.reg("atomfs-prefix")))
		}},
		{"tmpfs~memfs", func() fsapi.FS { return memfs.New() }},
		{"ext4~retryfs", func() fsapi.FS { return retryfs.New() }},
	}
	workloads := []struct {
		name string
		run  func(context.Context, fsapi.FS) workload.Result
	}{
		{"largefile", workload.Largefile},
		{"smallfile", workload.Smallfile},
		{"git-clone", workload.GitClone},
		{"make-xv6", workload.MakeXv6},
		{"cp-qemu", workload.CpQemu},
		{"ripgrep", workload.Ripgrep},
		// Deep-path cells: the historical 4-component shape plus the
		// flag-selected depth (default 8), where the prefix cache's win
		// over root lock-coupling shows in the standard sweep.
		{"deeppath-4", func(ctx context.Context, fs fsapi.FS) workload.Result {
			return workload.DeepPath(ctx, fs, 4)
		}},
	}
	if quick {
		workloads = workloads[2:] // the app traces are already small
	}
	if depth != 4 {
		workloads = append(workloads, struct {
			name string
			run  func(context.Context, fsapi.FS) workload.Result
		}{fmt.Sprintf("deeppath-%d", depth), func(ctx context.Context, fs fsapi.FS) workload.Result {
			return workload.DeepPath(ctx, fs, depth)
		}})
	}
	names := make([]string, len(systems))
	for i, s := range systems {
		names[i] = s.name
	}
	tab := benchutil.NewTable(names...)
	for _, w := range workloads {
		for _, s := range systems {
			fs := s.mk()
			m := benchutil.Time(w.name, s.name, func() int64 { return w.run(ctx, fs).Ops })
			tab.Add(m)
		}
	}
	if emitCSV {
		tab.RenderCSV(os.Stdout)
		fmt.Println()
		return
	}
	tab.Render(os.Stdout)
	fmt.Println()
	fo.footer(os.Stdout)
	fmt.Println("paper shape: DFSCQ needs 1.38x-2.52x the time of AtomFS; AtomFS is slower than tmpfs and ext4")
	for _, w := range workloads {
		fmt.Printf("  %-12s dfscq/atomfs = %.2fx   atomfs/tmpfs = %.2fx\n",
			w.name,
			tab.Ratio(w.name, "dfscq~slowfs", "atomfs"),
			tab.Ratio(w.name, "atomfs", "tmpfs~memfs"))
	}
	fmt.Println()
}

// figure11 reproduces the scalability curves: AtomFS vs AtomFS-biglock vs
// the ext4 stand-in, speedup over their own single-thread throughput.
func figure11(personality string, maxThreads int, quick bool) {
	fmt.Printf("=== Figure 11: %s scalability (real execution, GOMAXPROCS=%d) ===\n", personality, runtime.GOMAXPROCS(0))
	fo := newFigObs()
	systems := []struct {
		name string
		mk   func() fsapi.FS
	}{
		{"atomfs", func() fsapi.FS {
			return atomfs.New(atomfs.WithBlocks(1<<19), atomfs.WithObs(fo.reg("atomfs")))
		}},
		{"atomfs-fastpath", func() fsapi.FS {
			return atomfs.New(atomfs.WithFastPath(), atomfs.WithBlocks(1<<19), atomfs.WithObs(fo.reg("atomfs-fastpath")))
		}},
		{"atomfs-biglock", func() fsapi.FS {
			return atomfs.New(atomfs.WithBigLock(), atomfs.WithBlocks(1<<19), atomfs.WithObs(fo.reg("atomfs-biglock")))
		}},
		{"ext4~retryfs", func() fsapi.FS { return retryfs.New() }},
	}
	names := make([]string, len(systems))
	for i, s := range systems {
		names[i] = s.name
	}
	series := benchutil.NewSeries(personality, names...)

	var threadCounts []int
	for t := 1; t <= maxThreads; t *= 2 {
		threadCounts = append(threadCounts, t)
	}
	if last := threadCounts[len(threadCounts)-1]; last != maxThreads {
		threadCounts = append(threadCounts, maxThreads)
	}

	for _, s := range systems {
		for _, th := range threadCounts {
			fs := s.mk()
			var m benchutil.Measurement
			switch personality {
			case "fileserver":
				cfg := workload.DefaultFileserver()
				if quick {
					cfg.Files, cfg.OpsPerThd, cfg.FileSize = 1000, 500, 4<<10
				}
				workload.PrepareFileserver(ctx, fs, cfg)
				m = benchutil.Time(personality, s.name, func() int64 {
					return workload.Fileserver(ctx, fs, cfg, th).Ops
				})
			case "webproxy":
				cfg := workload.DefaultWebproxy()
				if quick {
					cfg.Files, cfg.OpsPerThd = 500, 500
				}
				workload.PrepareWebproxy(ctx, fs, cfg)
				m = benchutil.Time(personality, s.name, func() int64 {
					return workload.Webproxy(ctx, fs, cfg, th).Ops
				})
			case "varmail":
				cfg := workload.DefaultVarmail()
				if quick {
					cfg.Files, cfg.OpsPerThd = 300, 500
				}
				workload.PrepareVarmail(ctx, fs, cfg)
				m = benchutil.Time(personality, s.name, func() int64 {
					return workload.Varmail(ctx, fs, cfg, th).Ops
				})
			default:
				fmt.Fprintf(os.Stderr, "unknown personality %q\n", personality)
				os.Exit(2)
			}
			series.Add(s.name, th, m)
		}
	}
	if emitCSV {
		series.RenderCSV(os.Stdout)
	} else {
		series.Render(os.Stdout)
		fo.footer(os.Stdout)
	}
	maxT := threadCounts[len(threadCounts)-1]
	atomT := series.Throughput("atomfs", maxT)
	bigT := series.Throughput("atomfs-biglock", maxT)
	if bigT > 0 && !emitCSV {
		fmt.Printf("atomfs/biglock throughput at %d threads: %.2fx", maxT, atomT/bigT)
		switch personality {
		case "fileserver":
			fmt.Printf("   (paper: 1.46x at 16 threads)\n")
		case "webproxy":
			fmt.Printf("   (paper: 1.16x at 16 threads)\n")
		default:
			fmt.Printf("   (extension personality; not in the paper)\n")
		}
	}
	fmt.Println()
}

// figObs holds one shared obs registry per instrumented system for the
// duration of a figure: every run of that system reports into the same
// registry, so the footer shows figure-wide accumulated stats.
type figObs struct {
	names []string
	regs  map[string]*obs.Registry
}

func newFigObs() *figObs { return &figObs{regs: map[string]*obs.Registry{}} }

// reg returns (creating on first use) the figure-shared registry for a
// system.
func (f *figObs) reg(name string) *obs.Registry {
	r, ok := f.regs[name]
	if !ok {
		r = obs.NewRegistry()
		f.regs[name] = r
		f.names = append(f.names, name)
	}
	return r
}

// sumPrefix totals every counter whose name starts with prefix (i.e. all
// label variants of one metric family).
func sumPrefix(r *obs.Registry, prefix string) uint64 {
	var total uint64
	r.EachCounter(func(name string, c *obs.Counter) {
		if strings.HasPrefix(name, prefix) {
			total += c.Value()
		}
	})
	return total
}

// footer renders the uniform per-figure stats block: for each
// instrumented system, operation totals, fast-path outcome counts, and
// the sampled latency / lock-time distributions from the obs registry.
func (f *figObs) footer(w io.Writer) {
	if emitCSV {
		return
	}
	for _, name := range f.names {
		r := f.regs[name]
		ops := sumPrefix(r, "atomfs_ops_total")
		if ops == 0 {
			continue
		}
		line := fmt.Sprintf("obs[%s]: ops=%d", name, ops)
		hitsV, _ := r.FuncValue("atomfs_fastpath_hits_total")
		fallsV, _ := r.FuncValue("atomfs_fastpath_fallbacks_total")
		hits, falls := uint64(hitsV), uint64(fallsV)
		if att := hits + falls; att > 0 {
			spins := r.Counter("atomfs_fastpath_seq_spins_total").Value()
			line += fmt.Sprintf(" fastpath(hit=%.1f%% falls=%d spins=%d)",
				100*float64(hits)/float64(att), falls, spins)
		}
		phV, _ := r.FuncValue("atomfs_prefix_hits_total")
		pmV, _ := r.FuncValue("atomfs_prefix_misses_total")
		if att := float64(phV) + float64(pmV); att > 0 {
			piV, _ := r.FuncValue("atomfs_prefix_invalidations_total")
			line += fmt.Sprintf(" prefix(hit=%.1f%% invals=%d)", 100*float64(phV)/att, piV)
		}
		var lat obs.HistSnapshot
		r.EachHistogram(func(hn string, h *obs.Histogram) {
			if strings.HasPrefix(hn, "atomfs_op_latency_ns") {
				lat.Merge(h.Snapshot())
			}
		})
		if lat.Count > 0 {
			line += fmt.Sprintf(" lat(p50=%s p99=%s)",
				time.Duration(lat.Quantile(0.50)), time.Duration(lat.Quantile(0.99)))
		}
		if lw := r.Histogram("atomfs_lock_wait_ns").Snapshot(); lw.Count > 0 {
			line += fmt.Sprintf(" lockwait(mean=%s)", time.Duration(lw.Mean()))
		}
		if lh := r.Histogram("atomfs_lock_hold_ns").Snapshot(); lh.Count > 0 {
			line += fmt.Sprintf(" lockhold(mean=%s)", time.Duration(lh.Mean()))
		}
		fmt.Fprintln(w, line)
	}
}
