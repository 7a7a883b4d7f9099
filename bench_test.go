// Benchmarks regenerating the paper's evaluation (§7), one per figure:
//
//   - BenchmarkFig10/... — Figure 10, application workloads on each file
//     system (single-threaded running time; compare with `fsbench -fig 10`);
//   - BenchmarkFig11.../real — Figure 11(a)(b), the personalities
//     executed for real at GOMAXPROCS parallelism;
//   - BenchmarkMonitorOverhead — ablation: the cost of running AtomFS
//     under the CRL-H runtime monitor;
//   - BenchmarkOps — per-operation microbenchmarks across the variants
//     (the substrate numbers behind Figure 10's shape).
package atomfs_test

import (
	"context"
	"fmt"
	"testing"

	atomfs "repro"
	iatomfs "repro/internal/atomfs"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/memfs"
	"repro/internal/retryfs"
	"repro/internal/slowfs"
	"repro/internal/workload"
)

func systems() []struct {
	name string
	mk   func() fsapi.FS
} {
	return []struct {
		name string
		mk   func() fsapi.FS
	}{
		{"dfscq~slowfs", func() fsapi.FS { return slowfs.New(iatomfs.New()) }},
		{"atomfs", func() fsapi.FS { return iatomfs.New() }},
		{"atomfs-fastpath", func() fsapi.FS { return iatomfs.New(iatomfs.WithFastPath()) }},
		{"atomfs-biglock", func() fsapi.FS { return iatomfs.New(iatomfs.WithBigLock()) }},
		{"tmpfs~memfs", func() fsapi.FS { return memfs.New() }},
		{"ext4~retryfs", func() fsapi.FS { return retryfs.New() }},
	}
}

// BenchmarkFig10 regenerates Figure 10: each iteration runs one complete
// application workload on a fresh file system.
func BenchmarkFig10(b *testing.B) {
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
	}
	for _, w := range workloads {
		for _, s := range systems() {
			b.Run(w.name+"/"+s.name, func(b *testing.B) {
				var ops int64
				for i := 0; i < b.N; i++ {
					fs := s.mk()
					ops += w.run(tctx, fs).Ops
				}
				b.ReportMetric(float64(ops)/float64(b.N), "fsops/run")
			})
		}
	}
}

// BenchmarkFig11Fileserver regenerates Figure 11(a).
func BenchmarkFig11Fileserver(b *testing.B) {
	for _, s := range []struct {
		name string
		mk   func() fsapi.FS
	}{
		{"atomfs", func() fsapi.FS { return iatomfs.New() }},
		{"atomfs-fastpath", func() fsapi.FS { return iatomfs.New(iatomfs.WithFastPath()) }},
		{"atomfs-biglock", func() fsapi.FS { return iatomfs.New(iatomfs.WithBigLock()) }},
		{"ext4~retryfs", func() fsapi.FS { return retryfs.New() }},
	} {
		b.Run("real/"+s.name, func(b *testing.B) {
			cfg := workload.FileserverConfig{Dirs: 64, Files: 1000, FileSize: 4 << 10, AppendLen: 1 << 10, OpsPerThd: 500}
			for i := 0; i < b.N; i++ {
				fs := s.mk()
				workload.PrepareFileserver(tctx, fs, cfg)
				res := workload.Fileserver(tctx, fs, cfg, 4)
				b.ReportMetric(float64(res.Ops), "fsops/run")
			}
		})
	}
}

// BenchmarkFig11Webproxy regenerates Figure 11(b).
func BenchmarkFig11Webproxy(b *testing.B) {
	for _, s := range []struct {
		name string
		mk   func() fsapi.FS
	}{
		{"atomfs", func() fsapi.FS { return iatomfs.New() }},
		{"atomfs-fastpath", func() fsapi.FS { return iatomfs.New(iatomfs.WithFastPath()) }},
		{"atomfs-biglock", func() fsapi.FS { return iatomfs.New(iatomfs.WithBigLock()) }},
		{"ext4~retryfs", func() fsapi.FS { return retryfs.New() }},
	} {
		b.Run("real/"+s.name, func(b *testing.B) {
			cfg := workload.WebproxyConfig{Files: 500, FileSize: 4 << 10, OpsPerThd: 500}
			for i := 0; i < b.N; i++ {
				fs := s.mk()
				workload.PrepareWebproxy(tctx, fs, cfg)
				res := workload.Webproxy(tctx, fs, cfg, 4)
				b.ReportMetric(float64(res.Ops), "fsops/run")
			}
		})
	}
}

// BenchmarkMonitorOverhead is the verification-cost ablation: the same
// operation mix with and without the CRL-H monitor attached.
func BenchmarkMonitorOverhead(b *testing.B) {
	run := func(b *testing.B, fs fsapi.FS) {
		if err := fs.Mkdir(tctx, "/d"); err != nil {
			b.Fatal(err)
		}
		rbuf := make([]byte, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := fmt.Sprintf("/d/f%d", i)
			fs.Mknod(tctx, p)
			fs.Write(tctx, p, 0, []byte("0123456789abcdef"))
			fs.Stat(tctx, p)
			fs.Read(tctx, p, 0, rbuf)
			fs.Unlink(tctx, p)
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, iatomfs.New()) })
	b.Run("monitored", func(b *testing.B) {
		mon := core.NewMonitor(core.Config{})
		run(b, iatomfs.New(iatomfs.WithMonitor(mon)))
		if vs := mon.Violations(); len(vs) > 0 {
			b.Fatalf("violations: %v", vs)
		}
	})
	b.Run("monitored+goodafs", func(b *testing.B) {
		mon := core.NewMonitor(core.Config{CheckGoodAFS: true})
		run(b, iatomfs.New(iatomfs.WithMonitor(mon)))
	})
}

// BenchmarkOps measures the primitive operations on each variant.
func BenchmarkOps(b *testing.B) {
	for _, s := range systems() {
		s := s
		b.Run("stat/"+s.name, func(b *testing.B) {
			fs := s.mk()
			fs.Mkdir(tctx, "/d")
			fs.Mknod(tctx, "/d/f")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fs.Stat(tctx, "/d/f"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("create-unlink/"+s.name, func(b *testing.B) {
			fs := s.mk()
			fs.Mkdir(tctx, "/d")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fs.Mknod(tctx, "/d/f")
				fs.Unlink(tctx, "/d/f")
			}
		})
		b.Run("rename/"+s.name, func(b *testing.B) {
			fs := s.mk()
			fs.Mkdir(tctx, "/d1")
			fs.Mkdir(tctx, "/d2")
			fs.Mknod(tctx, "/d1/f")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fs.Rename(tctx, "/d1/f", "/d2/f")
				fs.Rename(tctx, "/d2/f", "/d1/f")
			}
		})
		b.Run("write4k/"+s.name, func(b *testing.B) {
			fs := s.mk()
			fs.Mknod(tctx, "/f")
			buf := make([]byte, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fs.Write(tctx, "/f", 0, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMountedOps measures the FUSE-like dispatch overhead: the same
// stat through the in-process mount vs direct calls.
func BenchmarkMountedOps(b *testing.B) {
	fs := iatomfs.New()
	fs.Mkdir(tctx, "/d")
	fs.Mknod(tctx, "/d/f")
	client, cleanup := atomfs.Mount(fs)
	defer cleanup()
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fs.Stat(tctx, "/d/f")
		}
	})
	b.Run("mounted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			client.Stat(tctx, "/d/f")
		}
	})
}
