// Atomicswap: the application pattern that motivates the paper's
// introduction — "10 of 11 applications (e.g., databases, key-value
// stores) expect atomicity of file system updates". A writer repeatedly
// replaces a configuration file with the classic write-temp-then-rename
// idiom while many readers read it by path. Because AtomFS operations are
// linearizable, every read observes either the complete old version or
// the complete new version, never a torn mix — the example asserts it.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	atomfs "repro"
)

// ctx is the example's root context (mains are execution roots).
var ctx = context.Background()

const generations = 200

func content(gen int) []byte {
	// Each version has a distinct, self-consistent body: a header and a
	// trailer that must match.
	return []byte(fmt.Sprintf("gen=%04d\npayload=%s\nend=%04d\n",
		gen, bytes.Repeat([]byte{byte('a' + gen%26)}, 512), gen))
}

func main() {
	fs := atomfs.New()
	must(fs.Mkdir(ctx, "/etc"))
	must(fs.Mknod(ctx, "/etc/app.conf"))
	_, err := fs.Write(ctx, "/etc/app.conf", 0, content(0))
	must(err)

	var torn atomic.Int64
	var reads atomic.Int64
	var wg sync.WaitGroup

	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				data, err := atomfs.ReadAll(ctx, fs, "/etc/app.conf", 0, 4096)
				if err != nil {
					continue // a replace is mid-flight; the path briefly misses
				}
				reads.Add(1)
				// A torn read would mix generations.
				var gen, end int
				n, _ := fmt.Sscanf(string(data), "gen=%d", &gen)
				if i := bytes.LastIndex(data, []byte("end=")); n == 1 && i >= 0 {
					fmt.Sscanf(string(data[i:]), "end=%d", &end)
					if gen != end || !bytes.Equal(data, content(gen)) {
						torn.Add(1)
					}
				} else {
					torn.Add(1)
				}
			}
		}()
	}

	// The writer: write a temp file completely, then rename it over the
	// live one. rename's atomicity is what makes this pattern safe. The
	// explicit yields keep the readers running even on a single-CPU box.
	for gen := 1; gen <= generations; gen++ {
		must(fs.Mknod(ctx, "/etc/.app.conf.tmp"))
		_, err := fs.Write(ctx, "/etc/.app.conf.tmp", 0, content(gen))
		must(err)
		must(fs.Rename(ctx, "/etc/.app.conf.tmp", "/etc/app.conf"))
		runtime.Gosched()
		if gen%20 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()

	fmt.Printf("replacements: %d, concurrent reads: %d, torn reads: %d\n",
		generations, reads.Load(), torn.Load())
	if torn.Load() != 0 {
		log.Fatal("torn read observed — atomicity violated!")
	}
	fmt.Println("every read saw a complete version: rename is atomic")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
