// Citest shows how a downstream project gates its own workload on the
// CRL-H verification machinery in CI: run the application's file system
// access pattern concurrently under the monitor, then fail the build if
// any invariant broke, the abstraction relation diverged, or the recorded
// history is not linearizable. Exit status is the verdict.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"

	atomfs "repro"
)

// ctx is the example's root context (mains are execution roots).
var ctx = context.Background()

// appWorkload is a stand-in for "your integration test": a pipeline stage
// that builds a working directory, publishes results with atomic renames,
// and cleans up — racing against two peers.
func appWorkload(fs atomfs.FS, id int) {
	work := fmt.Sprintf("/work-%d", id)
	fs.Mkdir(ctx, work)
	fs.Mknod(ctx, work+"/out")
	fs.Write(ctx, work+"/out", 0, []byte(fmt.Sprintf("result of stage %d", id)))
	fs.Rename(ctx, work+"/out", fmt.Sprintf("/published-%d", id))
	fs.Rmdir(ctx, work)
	fs.Stat(ctx, fmt.Sprintf("/published-%d", (id+1)%3)) // peek at a sibling's output
}

func main() {
	rec := atomfs.NewRecorder()
	mon := atomfs.NewMonitor(atomfs.MonitorConfig{Recorder: rec, CheckGoodAFS: true})
	fs := atomfs.New(atomfs.WithMonitor(mon))

	var wg sync.WaitGroup
	for id := 0; id < 3; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			appWorkload(fs, id)
		}(id)
	}
	wg.Wait()

	failed := false
	for _, v := range mon.Violations() {
		fmt.Println("INVARIANT VIOLATION:", v)
		failed = true
	}
	if err := mon.Quiesce(); err != nil {
		fmt.Println("ABSTRACTION RELATION BROKEN:", err)
		failed = true
	}
	res, err := atomfs.CheckLinearizable(nil, rec.Events())
	if err != nil {
		log.Fatal(err)
	}
	if !res.Linearizable {
		fmt.Println("HISTORY NOT LINEARIZABLE")
		failed = true
	}
	st := mon.Stats()
	fmt.Printf("verified %d operations (%d helped across external LPs); linearizable=%v\n",
		st.Linearized, st.Helped, res.Linearizable)
	if failed {
		os.Exit(1)
	}
	fmt.Println("CI gate: PASS")
}
