package dir

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestInsertLookupDelete(t *testing.T) {
	d := New[int]()
	if _, ok := d.Lookup("a"); ok {
		t.Fatal("lookup in empty table succeeded")
	}
	if !d.Insert("a", 1) {
		t.Fatal("insert failed")
	}
	if d.Insert("a", 2) {
		t.Fatal("duplicate insert succeeded")
	}
	v, ok := d.Lookup("a")
	if !ok || v != 1 {
		t.Fatalf("lookup = %d %v", v, ok)
	}
	v, ok = d.Delete("a")
	if !ok || v != 1 {
		t.Fatalf("delete = %d %v", v, ok)
	}
	if _, ok := d.Delete("a"); ok {
		t.Fatal("double delete succeeded")
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestNamesSorted(t *testing.T) {
	d := New[int]()
	names := []string{"zeta", "alpha", "mid", "beta", "omega"}
	for i, n := range names {
		d.Insert(n, i)
	}
	got := d.Names()
	if !sort.StringsAreSorted(got) {
		t.Fatalf("Names not sorted: %v", got)
	}
	if len(got) != len(names) {
		t.Fatalf("Names = %v", got)
	}
}

func TestCollisions(t *testing.T) {
	// More entries than buckets forces chains.
	d := New[int]()
	const n = 1000
	for i := 0; i < n; i++ {
		if !d.Insert(fmt.Sprintf("entry-%d", i), i) {
			t.Fatalf("insert %d failed", i)
		}
	}
	if d.Len() != n {
		t.Fatalf("Len = %d", d.Len())
	}
	for i := 0; i < n; i++ {
		v, ok := d.Lookup(fmt.Sprintf("entry-%d", i))
		if !ok || v != i {
			t.Fatalf("lookup %d = %d %v", i, v, ok)
		}
	}
	// Delete odd entries, verify even ones survive.
	for i := 1; i < n; i += 2 {
		if _, ok := d.Delete(fmt.Sprintf("entry-%d", i)); !ok {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := 0; i < n; i++ {
		_, ok := d.Lookup(fmt.Sprintf("entry-%d", i))
		if want := i%2 == 0; ok != want {
			t.Fatalf("after deletes, lookup %d = %v", i, ok)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	d := New[int]()
	for i := 0; i < 10; i++ {
		d.Insert(fmt.Sprintf("n%d", i), i)
	}
	count := 0
	d.Range(func(string, int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("Range visited %d, want 3", count)
	}
}

// TestPropertyVsModelMap drives the table and a plain map with the same
// random operation stream and checks they always agree.
func TestPropertyVsModelMap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := New[int]()
		model := map[string]int{}
		for i := 0; i < 300; i++ {
			name := fmt.Sprintf("k%d", r.Intn(40))
			switch r.Intn(3) {
			case 0:
				_, inModel := model[name]
				ok := d.Insert(name, i)
				if ok == inModel {
					return false
				}
				if ok {
					model[name] = i
				}
			case 1:
				v, ok := d.Delete(name)
				mv, inModel := model[name]
				if ok != inModel || (ok && v != mv) {
					return false
				}
				delete(model, name)
			case 2:
				v, ok := d.Lookup(name)
				mv, inModel := model[name]
				if ok != inModel || (ok && v != mv) {
					return false
				}
			}
			if d.Len() != len(model) {
				return false
			}
		}
		want := make([]string, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		got := d.Names()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestLockFreeReaders races lock-free Lookups against a locked writer
// churning inserts and deletes. Run with -race: the RCU-hlist discipline
// (publish-before-insert, predecessor re-pointing on delete, immutable
// entries) must keep every read either before or after each mutation,
// and a Lookup must never observe a half-built entry.
func TestLockFreeReaders(t *testing.T) {
	tb := New[int]()
	var mu sync.Mutex // the "owning inode lock" of the contract
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for w := 0; w < 4; w++ {
		rg.Add(1)
		go func(w int) {
			defer rg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("k%d", (i+w)%32)
				if v, ok := tb.Lookup(name); ok && v < 0 {
					t.Errorf("lookup %s: torn value %d", name, v)
				}
			}
		}(w)
	}
	for i := 0; i < 20000; i++ {
		name := fmt.Sprintf("k%d", i%32)
		mu.Lock()
		if _, ok := tb.Lookup(name); ok {
			tb.Delete(name)
		} else {
			tb.Insert(name, i)
		}
		mu.Unlock()
	}
	close(stop)
	rg.Wait()
}
