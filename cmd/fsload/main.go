// Command fsload drives an AtomFS daemon with open-loop (Poisson
// arrival) load and reports the latency-versus-offered-rate curve: p50,
// p99 and p99.9 at each rate, the saturation knee (the highest rate the
// server kept up with), and whether the tail stays sane below the knee.
// Open-loop measurement is the point (internal/fsload, DESIGN.md §15):
// a closed-loop benchmark slows its own offered load when the server
// slows down and so reports flat, flattering latency right through
// saturation; an open loop keeps offering work like real clients do and
// exposes the queueing collapse.
//
// By default the tool serves an in-process AtomFS over a real TCP
// loopback socket, so the measured path is the full wire protocol —
// framing, the coalescing writer, pooled payloads — not an in-process
// shortcut. Point it at an external daemon with -addr/-unix.
//
// Usage:
//
//	fsload                              # self-hosted sweep, auto-calibrated rates
//	fsload -rates 2000,5000,10000       # explicit offered-rate ladder
//	fsload -addr 127.0.0.1:7433         # drive a running atomfsd
//	fsload -duration 5s -read 0.5       # longer cells, 50% reads
//	fsload -json sweep.json             # machine-readable results
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/atomfs"
	"repro/internal/fsapi"
	"repro/internal/fsload"
	"repro/internal/fuse"
)

// ctx is the tool's root context (mains are execution roots).
var ctx = context.Background()

func die(err error) {
	fmt.Fprintln(os.Stderr, "fsload:", err)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "", "drive an external daemon at this TCP address (default: self-hosted)")
	unixSock := flag.String("unix", "", "drive an external daemon on this unix socket")
	rateList := flag.String("rates", "", "comma-separated offered rates in ops/sec (default: auto-calibrate a ladder)")
	duration := flag.Duration("duration", 3*time.Second, "arrival-generation window per rate")
	readFrac := flag.Float64("read", 0.3, "fraction of ops that are 4KiB reads (the rest are stats)")
	files := flag.Int("files", 64, "files in the prepared tree")
	outstanding := flag.Int("outstanding", 96, "max concurrently outstanding ops (finite client population)")
	jsonOut := flag.String("json", "", "also write results as JSON to this file")
	seed := flag.Int64("seed", 1, "arrival-process seed")
	nogc := flag.Bool("nogc", false, "disable GC during each cell (tail hygiene on small hosts; see internal/fsload)")
	flag.Parse()

	// Target: an external daemon, or a self-hosted AtomFS behind a real
	// TCP loopback listener.
	var client *fuse.Client
	var err error
	switch {
	case *unixSock != "":
		client, err = fuse.DialNetwork("unix", *unixSock)
	case *addr != "":
		client, err = fuse.Dial(*addr)
	default:
		lis, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			die(lerr)
		}
		srv := fuse.NewServer(atomfs.New(atomfs.WithFastPath()))
		go srv.Serve(lis)
		defer srv.Close()
		client, err = fuse.Dial(lis.Addr().String())
		fmt.Printf("fsload: self-hosted atomfs on %s\n", lis.Addr())
	}
	if err != nil {
		die(err)
	}
	defer client.Close()

	op, err := prepare(client, *files, *readFrac, *seed)
	if err != nil {
		die(err)
	}

	var rates []float64
	if *rateList != "" {
		for _, f := range strings.Split(*rateList, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || r <= 0 {
				die(fmt.Errorf("bad rate %q", f))
			}
			rates = append(rates, r)
		}
	} else {
		cap := calibrate(op)
		fmt.Printf("fsload: closed-loop calibration ≈ %.0f ops/s\n", cap)
		for _, frac := range []float64{0.3, 0.5, 0.7, 0.9, 1.1, 1.4} {
			rates = append(rates, frac*cap)
		}
	}

	base := fsload.Config{Duration: *duration, MaxOutstanding: *outstanding, Seed: *seed, DisableGC: *nogc}
	results := fsload.Sweep(ctx, op, rates, base)

	fmt.Printf("\n%12s %12s %10s %10s %10s %10s  %s\n",
		"offered/s", "achieved/s", "p50", "p99", "p99.9", "max", "")
	for _, r := range results {
		mark := ""
		if r.Saturated() {
			mark = "  SATURATED"
		}
		fmt.Printf("%12.0f %12.0f %10v %10v %10v %10v%s\n",
			r.Offered, r.Achieved, round(r.P50), round(r.P99), round(r.P999), round(r.Max), mark)
	}
	knee := fsload.Knee(results)
	if knee < 0 {
		fmt.Println("\nfsload: saturated at every offered rate — no knee found")
	} else {
		r := results[knee]
		fmt.Printf("\nfsload: knee ≈ %.0f ops/s (p50=%v p99=%v p99.9=%v at the knee)\n",
			r.Offered, round(r.P50), round(r.P99), round(r.P999))
	}

	if *jsonOut != "" {
		type cell struct {
			Offered, Achieved    float64
			P50Ns, P99Ns, P999Ns int64
			Ops, Errors          int
			Saturated            bool
		}
		out := struct {
			Knee    int
			Results []cell
		}{Knee: knee}
		for _, r := range results {
			out.Results = append(out.Results, cell{
				Offered: r.Offered, Achieved: r.Achieved,
				P50Ns: int64(r.P50), P99Ns: int64(r.P99), P999Ns: int64(r.P999),
				Ops: r.Ops, Errors: r.Errors, Saturated: r.Saturated(),
			})
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			die(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			die(err)
		}
		fmt.Printf("fsload: wrote %s\n", *jsonOut)
	}
}

// prepare builds the target tree (files under /fsload, 16KiB each) and
// returns the mixed stat/read operation the generator issues.
func prepare(fs fsapi.FS, files int, readFrac float64, seed int64) (fsload.Op, error) {
	if err := fs.Mkdir(ctx, "/fsload"); err != nil {
		return nil, fmt.Errorf("mkdir /fsload: %w (tree already present from a previous run?)", err)
	}
	content := make([]byte, 16<<10)
	rand.New(rand.NewSource(seed)).Read(content)
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/fsload/f%03d", i)
		if err := fs.Mknod(ctx, paths[i]); err != nil {
			return nil, err
		}
		if _, err := fs.Write(ctx, paths[i], 0, content); err != nil {
			return nil, err
		}
	}
	cut := uint32(readFrac * 1000)
	// Pooled read buffers: generator-side garbage would surface as GC
	// pauses in the very tail being measured.
	bufPool := sync.Pool{New: func() any { b := make([]byte, 4096); return &b }}
	return func(ctx context.Context, i int) error {
		p := paths[i%len(paths)]
		// A cheap deterministic hash spreads the read/stat mix across
		// arrival indices without a shared RNG.
		if uint32(i*2654435761)%1000 < cut {
			buf := bufPool.Get().(*[]byte)
			_, err := fs.Read(ctx, p, int64((i%4)*4096), *buf)
			bufPool.Put(buf)
			return err
		}
		_, err := fs.Stat(ctx, p)
		return err
	}, nil
}

// calibrate estimates the target's closed-loop capacity with a short
// 32-worker burst; the auto ladder brackets the open-loop knee around it.
func calibrate(op fsload.Op) float64 {
	const workers = 32
	window := 500 * time.Millisecond
	done := make(chan int, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		go func(w int) {
			n := 0
			for time.Since(start) < window {
				if op(ctx, w*1_000_000+n) == nil {
					n++
				}
			}
			done <- n
		}(w)
	}
	total := 0
	for w := 0; w < workers; w++ {
		total += <-done
	}
	return float64(total) / time.Since(start).Seconds()
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
