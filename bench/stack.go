package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/atomfs"
	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/fuse"
	"repro/internal/mount"
	"repro/internal/obs"
	"repro/internal/wal"
)

// The stack is what `atomfsd -volumes /v0,/v1,/v2,/v3 -journal -fastpath
// -prefix` builds, with atomfsd's defaults. The flush policy is part of
// the result and is printed with it: every acknowledged mutation has
// waited on a group-commit flush, the device's simulated sync delay is 0
// (this host's timer floor is ~1 ms, so any non-zero delay would measure
// the timer, not the journal), and a full-state checkpoint is taken every
// checkpointEvery records.
const (
	nVolumes        = 4
	ramdiskBlocks   = 1 << 18
	journalBlocks   = 1 << 16
	checkpointEvery = 256
	syncDelay       = 0
)

// rung says how much of a deployable volume is built. The ladder replays
// one op stream against each rung to split a volume's time into atomfs
// (bare), core (the monitor) and wal (the journal).
type rung int

const (
	rungBare rung = iota
	rungMonitored
	rungJournaled
)

var rungNames = [...]string{"bare", "monitored", "journaled"}

type volume struct {
	fs  *atomfs.FS
	mon *core.Monitor // nil on rungBare
	dev *wal.Device   // nil below rungJournaled
	log *wal.Log
}

type stack struct {
	reg  *obs.Registry
	vols []*volume // vols[0] serves "/", vols[1+k] serves /v<k>
	ns   *mount.NS
	top  fsapi.FS // where requests enter: ns, or the tracer's mount shim

	srv     *fuse.Server
	served  chan error
	clients []*fuse.Client
}

// buildStack builds the volumes and the namespace at rung r and, when
// wireClients > 0, a fuse server on TCP loopback with that many dialled
// clients. A non-nil tracer puts its shims at the mount and volume
// boundaries.
func buildStack(r rung, tr *tracer, wireClients int) (*stack, error) {
	st := &stack{reg: obs.NewRegistry()}
	ctx := context.Background()
	entry := func(i int) fsapi.FS {
		v := st.newVolume(r)
		st.vols = append(st.vols, v)
		if tr != nil {
			return tr.volume(i, v.fs)
		}
		return v.fs
	}
	st.ns = mount.New(entry(0))
	for k := 0; k < nVolumes; k++ {
		if err := st.ns.Mount(ctx, fmt.Sprintf("/v%d", k), entry(1+k)); err != nil {
			return nil, fmt.Errorf("mount /v%d: %w", k, err)
		}
	}
	st.top = st.ns
	if tr != nil {
		st.top = tr.mount(st.ns)
	}
	if wireClients == 0 {
		return st, nil
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.srv = fuse.NewServer(st.top)
	st.srv.SetObs(st.reg)
	st.srv.SetCoalesce(true)
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(lis) }()
	for i := 0; i < wireClients; i++ {
		c, err := fuse.Dial(lis.Addr().String())
		if err != nil {
			st.close()
			return nil, err
		}
		st.clients = append(st.clients, c)
	}
	return st, nil
}

func (st *stack) newVolume(r rung) *volume {
	v := &volume{}
	opts := []atomfs.Option{
		atomfs.WithBlocks(ramdiskBlocks), atomfs.WithObs(st.reg),
		atomfs.WithFastPath(), atomfs.WithPrefixCache(),
	}
	if r >= rungMonitored {
		v.mon = core.NewMonitor(core.Config{Obs: st.reg})
		opts = append(opts, atomfs.WithMonitor(v.mon))
	}
	if r >= rungJournaled {
		v.dev = wal.NewDevice(block.NewStore(journalBlocks), syncDelay)
		v.log = wal.NewLog(v.dev, wal.Config{CheckpointEvery: checkpointEvery, Obs: st.reg})
		opts = append(opts, atomfs.WithJournal(v.log))
	}
	v.fs = atomfs.New(opts...)
	return v
}

// close stops the clients and the server and waits for the accept loop.
func (st *stack) close() {
	for _, c := range st.clients {
		c.Close()
	}
	if st.srv != nil {
		st.srv.Close()
		<-st.served
	}
}

// gate is the check atomfsd runs on shutdown, per volume: the monitor is
// quiescent and saw no violation, the journal is not broken, and
// recovery from the device bytes alone yields exactly the monitor's
// abstract state. It returns every failure and the total recovery time.
func (st *stack) gate() (fails []string, recoverTime time.Duration) {
	for i, v := range st.vols {
		if v.mon == nil {
			continue
		}
		if err := v.mon.Quiesce(); err != nil {
			fails = append(fails, fmt.Sprintf("vol %d: quiesce: %v", i, err))
		}
		if viols := v.mon.Violations(); len(viols) > 0 {
			fails = append(fails, fmt.Sprintf("vol %d: %d CRL-H violations, first: %s", i, len(viols), viols[0]))
		}
		if v.log == nil {
			continue
		}
		if err := v.log.Broken(); err != nil {
			fails = append(fails, fmt.Sprintf("vol %d: journal broken: %v", i, err))
			continue
		}
		t0 := time.Now()
		recovered, _, err := wal.Recover(v.dev, nil)
		recoverTime += time.Since(t0)
		if err != nil {
			fails = append(fails, fmt.Sprintf("vol %d: recovery: %v", i, err))
			continue
		}
		if recovered.Key() != v.mon.AbstractState().Key() {
			fails = append(fails, fmt.Sprintf("vol %d: recovered state differs from the live abstract state", i))
		}
	}
	return fails, recoverTime
}
