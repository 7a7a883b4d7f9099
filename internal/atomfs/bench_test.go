package atomfs

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/fstest"
	"repro/internal/retryfs"
)

// The microbenchmarks below measure the two costs that shape a walk: the
// per-step cost of coupled traversal (depth sweep) and the entry-count
// dependence of directory critical sections (width sweep).

// BenchmarkTraversalDepth: stat cost as a function of path depth — each
// extra component adds one lock/unlock pair plus one hash lookup.
func BenchmarkTraversalDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			fs := New()
			path := ""
			for i := 0; i < depth; i++ {
				path = fmt.Sprintf("%s/d%d", path, i)
				if err := fs.Mkdir(tctx, path); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fs.Stat(tctx, path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDirectoryWidth: lookup cost as a function of directory size —
// the fixed-width hash table's chains grow linearly with entries, and
// the directory lock is held for the whole lookup.
func BenchmarkDirectoryWidth(b *testing.B) {
	for _, width := range []int{16, 256, 4096, 16384} {
		b.Run(fmt.Sprintf("entries-%d", width), func(b *testing.B) {
			fs := New()
			if err := fs.Mkdir(tctx, "/d"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < width; i++ {
				if err := fs.Mknod(tctx, fmt.Sprintf("/d/f%06d", i)); err != nil {
					b.Fatal(err)
				}
			}
			target := fmt.Sprintf("/d/f%06d", width/2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fs.Stat(tctx, target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRenameShapes: rename cost by structural relationship between
// source and destination (same dir, siblings, cross-subtree, deep).
func BenchmarkRenameShapes(b *testing.B) {
	shapes := []struct {
		name     string
		src, dst string
		setup    []string
	}{
		{"same-dir", "/d/a", "/d/b", []string{"/d"}},
		{"siblings", "/p/x/f", "/p/y/f", []string{"/p", "/p/x", "/p/y"}},
		{"cross-root", "/l/f", "/r/f", []string{"/l", "/r"}},
		{"deep", "/q/1/2/3/f", "/w/1/2/3/f", []string{"/q", "/q/1", "/q/1/2", "/q/1/2/3", "/w", "/w/1", "/w/1/2", "/w/1/2/3"}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			fs := New()
			for _, d := range sh.setup {
				if err := fs.Mkdir(tctx, d); err != nil {
					b.Fatal(err)
				}
			}
			if err := fs.Mknod(tctx, sh.src); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fs.Rename(tctx, sh.src, sh.dst); err != nil {
					b.Fatal(err)
				}
				if err := fs.Rename(tctx, sh.dst, sh.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUnsafeVsCoupled: the raw cost difference between coupled and
// release-then-acquire traversal (the broken variant is marginally
// cheaper — the price of correctness is small, which is the point).
func BenchmarkUnsafeVsCoupled(b *testing.B) {
	for _, variant := range []struct {
		name string
		mk   func() *FS
	}{
		{"coupled", func() *FS { return New() }},
		{"unsafe", func() *FS { return New(WithUnsafeTraversal()) }},
	} {
		b.Run(variant.name, func(b *testing.B) {
			fs := variant.mk()
			path := fstest.DeepTree(b, fs, 8)
			if err := fs.Mknod(tctx, path+"/f"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fs.Stat(tctx, path+"/f")
			}
		})
	}
}

// BenchmarkRefFDVsPath: the §5.4 trade — FD-direct data access skips the
// whole traversal.
func BenchmarkRefFDVsPath(b *testing.B) {
	fs := New()
	path := fstest.DeepTree(b, fs, 6) + "/f"
	if err := fs.Mknod(tctx, path); err != nil {
		b.Fatal(err)
	}
	if _, err := fs.Write(tctx, path, 0, make([]byte, 4096)); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.Run("path-read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fs.Read(tctx, path, 0, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reffd-read", func(b *testing.B) {
		fd, err := fs.OpenRef(tctx, path)
		if err != nil {
			b.Fatal(err)
		}
		defer fd.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fd.ReadAt(tctx, buf, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// fastPathSystems are the contenders for the fast-path benchmarks: the
// lock-coupling baseline, the same tree with the lockless fast path, and
// retryfs (whole-walk seqlock retry, the ext4-like design) as the target
// to chase.
func fastPathSystems() []struct {
	name string
	mk   func() fsapi.FS
} {
	return []struct {
		name string
		mk   func() fsapi.FS
	}{
		{"atomfs", func() fsapi.FS { return New() }},
		{"atomfs-fastpath", func() fsapi.FS { return New(WithFastPath()) }},
		{"retryfs", func() fsapi.FS { return retryfs.New() }},
	}
}

// benchTree builds /p0/p1/.../p{depth-1} with a payload file "f" at the
// bottom and returns the directory and file paths.
func benchTree(b *testing.B, fs fsapi.FS, depth int) (dir, file string) {
	b.Helper()
	for i := 0; i < depth; i++ {
		dir = fmt.Sprintf("%s/p%d", dir, i)
		if err := fs.Mkdir(tctx, dir); err != nil {
			b.Fatal(err)
		}
	}
	file = dir + "/f"
	if err := fs.Mknod(tctx, file); err != nil {
		b.Fatal(err)
	}
	if _, err := fs.Write(tctx, file, 0, []byte("0123456789abcdef")); err != nil {
		b.Fatal(err)
	}
	return dir, file
}

// BenchmarkFastPath is the headline comparison for the lockless read fast
// path. read-mostly-95-5 is the target workload: 95% stats/reads of a
// deep path, 5% namespace churn in the same subtree, with goroutine
// parallelism so the baseline pays root-lock convoying while the fast
// path walks through untouched. stat-pure and stat-shallow isolate the
// per-operation cost with no mutators at all.
func BenchmarkFastPath(b *testing.B) {
	const depth = 8
	b.Run("read-mostly-95-5", func(b *testing.B) {
		for _, s := range fastPathSystems() {
			s := s
			b.Run(s.name, func(b *testing.B) {
				fs := s.mk()
				dir, file := benchTree(b, fs, depth)
				var ids atomic.Uint64
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
							fs.Mknod(tctx, fmt.Sprintf("%s/m%d", dir, id))
						case i%40 == 30:
							fs.Unlink(tctx, fmt.Sprintf("%s/m%d", dir, ids.Load()))
						case i%2 == 0:
							if _, err := fs.Stat(tctx, file); err != nil {
								b.Error(err)
								return
							}
						default:
							if _, err := fs.Read(tctx, file, 0, rbuf); err != nil {
								b.Error(err)
								return
							}
						}
					}
				})
				reportHitRate(b, fs)
			})
		}
	})
	b.Run("stat-pure", func(b *testing.B) {
		for _, s := range fastPathSystems() {
			s := s
			b.Run(s.name, func(b *testing.B) {
				fs := s.mk()
				_, file := benchTree(b, fs, depth)
				b.SetParallelism(8)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if _, err := fs.Stat(tctx, file); err != nil {
							b.Error(err)
							return
						}
					}
				})
				reportHitRate(b, fs)
			})
		}
	})
	b.Run("stat-shallow", func(b *testing.B) {
		for _, s := range fastPathSystems() {
			s := s
			b.Run(s.name, func(b *testing.B) {
				fs := s.mk()
				_, file := benchTree(b, fs, 2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := fs.Stat(tctx, file); err != nil {
						b.Fatal(err)
					}
				}
				reportHitRate(b, fs)
			})
		}
	})
}

// writePathSystems are the contenders for the write-path benchmarks:
// root lock-coupling vs. the seqlock-validated prefix cache.
func writePathSystems() []struct {
	name string
	mk   func() fsapi.FS
} {
	return []struct {
		name string
		mk   func() fsapi.FS
	}{
		{"atomfs", func() fsapi.FS { return New() }},
		{"atomfs-prefix", func() fsapi.FS { return New(WithPrefixCache()) }},
	}
}

// BenchmarkWritePath is the headline comparison for the prefix cache:
// mutation mixes at the bottom of a deep tree, where the baseline pays
// one lock coupling per path component from the root and the cache pays
// one entry lock plus a generation validation. create-unlink alternates
// Mknod/Unlink of one name; create-rename adds a same-directory rename
// (the rename's LCA walk shortcuts too); churn keeps a growing directory
// with interleaved sibling renames so entries are created, moved, and
// removed under live cache traffic.
func BenchmarkWritePath(b *testing.B) {
	for _, depth := range []int{4, 8, 12, 16} {
		depth := depth
		b.Run(fmt.Sprintf("create-unlink/depth-%d", depth), func(b *testing.B) {
			for _, s := range writePathSystems() {
				s := s
				b.Run(s.name, func(b *testing.B) {
					fs := s.mk()
					dir, _ := benchTree(b, fs, depth)
					x := dir + "/x"
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := fs.Mknod(tctx, x); err != nil {
							b.Fatal(err)
						}
						if err := fs.Unlink(tctx, x); err != nil {
							b.Fatal(err)
						}
					}
					reportPrefixRate(b, fs)
				})
			}
		})
		b.Run(fmt.Sprintf("create-rename/depth-%d", depth), func(b *testing.B) {
			for _, s := range writePathSystems() {
				s := s
				b.Run(s.name, func(b *testing.B) {
					fs := s.mk()
					dir, _ := benchTree(b, fs, depth)
					x, y := dir+"/x", dir+"/y"
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := fs.Mknod(tctx, x); err != nil {
							b.Fatal(err)
						}
						if err := fs.Rename(tctx, x, y); err != nil {
							b.Fatal(err)
						}
						if err := fs.Unlink(tctx, y); err != nil {
							b.Fatal(err)
						}
					}
					reportPrefixRate(b, fs)
				})
			}
		})
	}
	b.Run("churn/depth-8", func(b *testing.B) {
		for _, s := range writePathSystems() {
			s := s
			b.Run(s.name, func(b *testing.B) {
				fs := s.mk()
				dir, _ := benchTree(b, fs, 8)
				var ids atomic.Uint64
				b.SetParallelism(4)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						i++
						// Bounded namespace: names recycle so the directory
						// stays small and the cells measure path resolution,
						// not hash-table growth. Races between workers make
						// some ops fail benignly; that is the point.
						id := ids.Add(1) % 512
						name := fmt.Sprintf("%s/c%d", dir, id)
						switch i % 4 {
						case 0, 1:
							fs.Mknod(tctx, name)
						case 2:
							fs.Rename(tctx, name, fmt.Sprintf("%s/r%d", dir, id))
						default:
							fs.Unlink(tctx, fmt.Sprintf("%s/r%d", dir, id))
						}
					}
				})
				reportPrefixRate(b, fs)
			})
		}
	})
}

// reportPrefixRate attaches the prefix-cache hit rate as a custom metric
// when the system exposes one.
func reportPrefixRate(b *testing.B, fs fsapi.FS) {
	type statter interface {
		PrefixCacheStats() (uint64, uint64, uint64)
	}
	if s, ok := fs.(statter); ok {
		hits, misses, _ := s.PrefixCacheStats()
		if hits+misses > 0 {
			b.ReportMetric(float64(hits)/float64(hits+misses), "prefix_hit_rate")
		}
	}
}

// reportHitRate attaches the fast-path hit rate as a custom metric when
// the system exposes one.
func reportHitRate(b *testing.B, fs fsapi.FS) {
	type statter interface{ FastPathStats() (uint64, uint64) }
	if s, ok := fs.(statter); ok {
		hits, falls := s.FastPathStats()
		if hits+falls > 0 {
			b.ReportMetric(float64(hits)/float64(hits+falls), "hit_rate")
		}
	}
}
