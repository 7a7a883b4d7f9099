package scenario

import (
	"fmt"
	"sync"

	"repro/internal/atomfs"
	"repro/internal/core"
	"repro/internal/spec"
)

// Unbounded demonstrates §3.3's observation that "a rename may help an
// unbounded set of threads": k worker operations pause inside their
// critical sections at distinct depths under /a, and a single
// rename(/a, /z) must help every one of them, in an order consistent
// with their lock acquisitions.
func Unbounded(k int) *Report {
	r := &Report{Name: fmt.Sprintf("unbounded-helping-%d", k), Mode: core.ModeHelpers}
	e := newEnv(core.ModeHelpers)

	// A chain /a/d0/d1/.../d(k-1); worker i operates at depth i.
	path := "/a"
	mustSetup(r, e.fs.Mkdir(e.ctx, path))
	for i := 0; i < k; i++ {
		path = fmt.Sprintf("%s/d%d", path, i)
		mustSetup(r, e.fs.Mkdir(e.ctx, path))
	}
	if r.Err != nil {
		return r
	}
	e.mark()

	// Pause every mknod at its LP; signal each arrival.
	parked := make(chan struct{}, k)
	release := newGate()
	e.fs.SetHook(func(ev atomfs.HookEvent) {
		if ev.Op == spec.OpMknod && ev.Point == atomfs.HookBeforeLP {
			parked <- struct{}{}
			release.wait()
		}
	})

	var wg sync.WaitGroup
	errs := make([]error, k)
	// Launch workers strictly deepest-first, waiting for each to park
	// before launching the next shallower one: a shallower worker parks
	// on a directory every deeper worker has already traversed through,
	// so any other order would deadlock the setup (not the FS).
	for i := k - 1; i >= 0; i-- {
		p := "/a"
		for j := 0; j <= i; j++ {
			p = fmt.Sprintf("%s/d%d", p, j)
		}
		wg.Add(1)
		go func(i int, target string) {
			defer wg.Done()
			errs[i] = e.fs.Mknod(e.ctx, target+"/file")
		}(i, p)
		if err := gate(parked).waitTimeout(); err != nil {
			r.Err = fmt.Errorf("worker %d never parked: %w", i, err)
			release.open()
			wg.Wait()
			return r
		}
	}
	r.step("%d operations paused inside critical sections under /a", k)
	renameErr := e.fs.Rename(e.ctx, "/a", "/z")
	r.step("rename(/a, /z) committed, helping all %d: %v", k, errStr(renameErr))
	release.open()
	wg.Wait()
	e.fs.SetHook(nil)

	for i, err := range errs {
		if err != nil && r.Err == nil {
			r.Err = fmt.Errorf("worker %d: %w", i, err)
		}
	}
	if renameErr != nil && r.Err == nil {
		r.Err = renameErr
	}
	if err := e.mon.Quiesce(); err != nil && r.Err == nil {
		r.Err = err
	}
	e.finish(r)
	return r
}
