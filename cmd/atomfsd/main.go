// Command atomfsd serves an AtomFS instance over the FUSE-like binary
// protocol (internal/fuse) on a TCP address — the userspace-daemon role
// AtomFS plays under FUSE in the paper. Any number of clients (fuse.Dial,
// or the atomfs.Dial public API) can mount it concurrently; the daemon
// can optionally run under the CRL-H monitor, and reports violations the
// moment they are detected as well as on shutdown.
//
// Usage:
//
//	atomfsd -addr 127.0.0.1:7433
//	atomfsd -addr :7433 -monitor -debug :6060
//	atomfsd -volumes /v0,/v1,/v2                  # sharded namespace
//	atomfsd -quota alice=500/100,bob=100          # per-tenant admission
//	atomfsd -monitor -journal                     # durable write-ahead journal
//
// With -journal, every volume appends its mutating operations to a
// write-ahead journal at the monitor's LP commit point (group-committed,
// checkpointed; DESIGN.md §14); on shutdown the daemon recovers each
// journal from its device bytes alone and verifies the result against
// the live abstract state. -journal implies -monitor.
//
// With -volumes, the daemon serves a sharded namespace: each listed path
// is an independent AtomFS volume (its own lock hierarchy, monitor and
// prefix cache) behind a mount table; renames across volumes run the
// two-phase helped protocol (DESIGN.md §13). With
// -quota, requests labelled with a tenant (fuse.Client.SetTenant) are
// paced by per-tenant token buckets before they can occupy a dispatch
// slot; each entry is tenant=rate[/burst[/maxqueue]].
//
// With -debug, the daemon serves its observability surface over HTTP:
//
//	curl http://localhost:6060/metrics          # Prometheus text
//	curl http://localhost:6060/debug/vars       # expvar-style JSON
//	curl http://localhost:6060/debug/flightrec  # flight-recorder dump
//	go tool pprof http://localhost:6060/debug/pprof/profile
//
// SIGUSR1 dumps the same metrics and the flight recorder to stderr,
// debug server or not.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/atomfs"
	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/fuse"
	"repro/internal/mount"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/wal"
)

func opNamer(op uint8) string { return spec.Op(op).String() }

func dumpObs(reg *obs.Registry) {
	fmt.Fprintln(os.Stderr, "atomfsd: --- metrics ---")
	reg.WritePrometheus(os.Stderr)
	fmt.Fprintln(os.Stderr, "atomfsd: --- flight recorder ---")
	obs.WriteEvents(os.Stderr, reg.FlightRecorder().Snapshot(), opNamer)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7433", "TCP listen address")
	unix := flag.String("unix", "", "listen on a unix socket path instead of TCP")
	monitored := flag.Bool("monitor", false, "run under the CRL-H monitor")
	fastpath := flag.Bool("fastpath", false, "enable the lockless read fast path (DESIGN.md s7)")
	prefix := flag.Bool("prefix", false, "enable the write-path prefix cache (DESIGN.md s11)")
	blocks := flag.Int("blocks", 1<<18, "ramdisk size in 4KiB blocks")
	debug := flag.String("debug", "", "serve /metrics, /debug/vars, /debug/flightrec and /debug/pprof on this address (e.g. :6060)")
	volumes := flag.String("volumes", "", "comma-separated mount points, each served by an independent volume (e.g. /v0,/v1)")
	quota := flag.String("quota", "", "per-tenant admission quotas: tenant=rate[/burst[/maxqueue]],...")
	journal := flag.Bool("journal", false, "write-ahead journal per volume with recovery verify on shutdown (implies -monitor)")
	journalCkpt := flag.Int("journal-ckpt", 256, "minimum records between journal checkpoints (one is taken once a quarter of the last one's bytes has also been logged)")
	journalBlocks := flag.Int("journal-blocks", 1<<16, "journal device size in 4KiB blocks")
	flag.Parse()

	if *journal && !*monitored {
		// The LP commit point is the append point, so the journal rides on
		// the monitor's atomic block.
		fmt.Fprintln(os.Stderr, "atomfsd: -journal implies -monitor")
		*monitored = true
	}

	// The daemon is always instrumented; -debug only controls whether the
	// HTTP surface is exposed. SIGUSR1 dumps work either way.
	reg := obs.NewRegistry()
	opts := []atomfs.Option{atomfs.WithBlocks(*blocks), atomfs.WithObs(reg)}
	if *fastpath {
		opts = append(opts, atomfs.WithFastPath())
	}
	if *prefix {
		opts = append(opts, atomfs.WithPrefixCache())
	}
	// Each volume gets its own monitor and watchdog: the CRL-H ghost
	// state is per-volume, matching the per-volume lock hierarchies.
	var mons []*core.Monitor
	var devs []*wal.Device
	var logs []*wal.Log
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	newVolume := func() fsapi.FS {
		vopts := append([]atomfs.Option{}, opts...)
		if *monitored {
			mon := core.NewMonitor(core.Config{
				CheckGoodAFS: false,
				Obs:          reg,
				// Surface violations the moment they happen rather than only
				// at shutdown; the callback runs inside the monitor's
				// critical section, so it only formats and writes.
				OnViolation: func(v core.Violation) {
					fmt.Fprintf(os.Stderr, "atomfsd: CRL-H VIOLATION: %s\n", v)
				},
			})
			mons = append(mons, mon)
			vopts = append(vopts, atomfs.WithMonitor(mon))
			// Surface stuck operations (deadlocks, leaked sessions) with
			// the ghost state that explains them.
			stops = append(stops, mon.Watchdog(time.Second, 10*time.Second, func(age time.Duration, dump string) {
				fmt.Fprintf(os.Stderr, "atomfsd: operation pending for %v\n%s", age.Round(time.Second), dump)
			}))
		}
		if *journal {
			dev := wal.NewDevice(block.NewStore(*journalBlocks), 0)
			l := wal.NewLog(dev, wal.Config{CheckpointEvery: *journalCkpt, Obs: reg})
			devs = append(devs, dev)
			logs = append(logs, l)
			vopts = append(vopts, atomfs.WithJournal(l))
		}
		return atomfs.New(vopts...)
	}
	var fs fsapi.FS = newVolume()
	if *volumes != "" {
		ns := mount.New(fs)
		ctx := context.Background()
		for _, p := range strings.Split(*volumes, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			if err := ns.Mount(ctx, p, newVolume()); err != nil {
				fmt.Fprintf(os.Stderr, "atomfsd: mount %s: %v\n", p, err)
				os.Exit(1)
			}
		}
		fs = ns
	}

	network, bind := "tcp", *addr
	if *unix != "" {
		network, bind = "unix", *unix
		if err := removeStaleSocket(bind); err != nil {
			fmt.Fprintf(os.Stderr, "atomfsd: %v\n", err)
			os.Exit(1)
		}
	}
	lis, err := net.Listen(network, bind)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := fuse.NewServer(fs)
	srv.SetObs(reg)
	if *quota != "" {
		for _, ent := range strings.Split(*quota, ",") {
			tenant, budget, ok := strings.Cut(strings.TrimSpace(ent), "=")
			if !ok || tenant == "" {
				fmt.Fprintf(os.Stderr, "atomfsd: bad -quota entry %q (want tenant=rate[/burst[/maxqueue]])\n", ent)
				os.Exit(1)
			}
			parts := strings.Split(budget, "/")
			var q fuse.QuotaConfig
			var err error
			if q.Rate, err = strconv.ParseFloat(parts[0], 64); err != nil || q.Rate <= 0 {
				fmt.Fprintf(os.Stderr, "atomfsd: bad -quota rate %q\n", parts[0])
				os.Exit(1)
			}
			if len(parts) > 1 {
				if q.Burst, err = strconv.ParseFloat(parts[1], 64); err != nil {
					fmt.Fprintf(os.Stderr, "atomfsd: bad -quota burst %q\n", parts[1])
					os.Exit(1)
				}
			}
			if len(parts) > 2 {
				if q.MaxQueue, err = strconv.Atoi(parts[2]); err != nil {
					fmt.Fprintf(os.Stderr, "atomfsd: bad -quota maxqueue %q\n", parts[2])
					os.Exit(1)
				}
			}
			srv.SetQuota(tenant, q)
		}
	}

	if *debug != "" {
		dbgLis, err := net.Listen("tcp", *debug)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("atomfsd: debug endpoints on http://%s\n", dbgLis.Addr())
		go func() {
			if err := http.Serve(dbgLis, obs.NewDebugMux(reg, opNamer)); err != nil {
				fmt.Fprintf(os.Stderr, "atomfsd: debug server: %v\n", err)
			}
		}()
	}

	fmt.Printf("atomfsd: serving %s on %s (monitor=%v, ramdisk=%d MiB per volume)\n",
		fsapi.Name(fs), lis.Addr(), *monitored, *blocks*4/1024)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("atomfsd: shutting down")
		srv.Close()
	}()
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	go func() {
		for range usr1 {
			dumpObs(reg)
		}
	}()

	if err := srv.Serve(lis); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(mons) > 0 {
		total := 0
		for i, mon := range mons {
			vs := mon.Violations()
			total += len(vs)
			for _, v := range vs {
				fmt.Printf("  vol %d: %s\n", i, v)
			}
			if len(vs) > 0 {
				if dump := mon.FlightDump(); len(dump) > 0 {
					fmt.Fprintf(os.Stderr, "atomfsd: vol %d flight recorder at first violation:\n", i)
					obs.WriteEvents(os.Stderr, dump, opNamer)
				}
			}
		}
		fmt.Printf("atomfsd: %d CRL-H violations recorded across %d volumes\n", total, len(mons))
		if total > 0 {
			os.Exit(1)
		}
	}
	// Shutdown recovery verify: each volume's journal must replay, from
	// the device bytes alone, to exactly the live abstract state.
	for i, l := range logs {
		if err := l.Broken(); err != nil {
			fmt.Fprintf(os.Stderr, "atomfsd: vol %d journal broken: %v\n", i, err)
			os.Exit(1)
		}
		recovered, info, err := wal.Recover(devs[i], nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atomfsd: vol %d recovery: %v\n", i, err)
			os.Exit(1)
		}
		if got, want := recovered.Key(), mons[i].AbstractState().Key(); got != want {
			fmt.Fprintf(os.Stderr, "atomfsd: vol %d recovered state diverges from live abstract state\n", i)
			os.Exit(1)
		}
		fmt.Printf("atomfsd: vol %d journal verified (%s; %d blocks mapped)\n", i, info, devs[i].BlocksMapped())
	}
}

// removeStaleSocket clears the way for listening on a unix socket at
// path: a socket left by a previous run is removed, a missing path is
// fine, and anything else (a regular file, a directory, a symlink) is
// kept and reported, so a mistyped -unix never deletes a user's file.
func removeStaleSocket(path string) error {
	fi, err := os.Lstat(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if fi.Mode().Type() != os.ModeSocket {
		return fmt.Errorf("-unix %s: exists and is not a socket", path)
	}
	return os.Remove(path)
}
