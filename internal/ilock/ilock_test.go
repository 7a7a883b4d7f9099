package ilock

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestMutexOwner(t *testing.T) {
	var m Mutex
	if m.Owner() != NoOwner {
		t.Fatal("fresh mutex has an owner")
	}
	m.Lock(7)
	if !m.HeldBy(7) || m.Owner() != 7 {
		t.Fatal("owner not recorded")
	}
	m.Unlock(7)
	if m.Owner() != NoOwner {
		t.Fatal("owner not cleared")
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	var m Mutex
	m.Lock(1)
	defer m.Unlock(1)
	defer func() {
		if recover() == nil {
			t.Error("unlock by non-owner did not panic")
		}
	}()
	m.Unlock(2)
}

func TestTryLock(t *testing.T) {
	var m Mutex
	if !m.TryLock(3) {
		t.Fatal("TryLock on free mutex failed")
	}
	if m.TryLock(4) {
		t.Fatal("TryLock on held mutex succeeded")
	}
	m.Unlock(3)
	if !m.TryLock(4) {
		t.Fatal("TryLock after unlock failed")
	}
	m.Unlock(4)
}

func TestMutexMutualExclusion(t *testing.T) {
	var m Mutex
	counter := 0
	var wg sync.WaitGroup
	for g := 1; g <= 8; g++ {
		wg.Add(1)
		go func(tid uint64) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Lock(tid)
				counter++
				m.Unlock(tid)
			}
		}(uint64(g))
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000", counter)
	}
}

func TestSeqCount(t *testing.T) {
	var s SeqCount
	v := s.Read()
	if !s.Validate(v) {
		t.Fatal("validate failed with no writer")
	}
	s.Begin()
	s.End()
	if s.Validate(v) {
		t.Fatal("validate succeeded across a write section")
	}
	v2 := s.Read()
	if !s.Validate(v2) {
		t.Fatal("fresh read does not validate")
	}
}

func TestSeqCountReadSkipsWriter(t *testing.T) {
	var s SeqCount
	s.Begin()
	done := make(chan uint64)
	go func() { done <- s.Read() }()
	s.End()
	v := <-done
	if v%2 != 0 {
		t.Fatalf("Read returned odd value %d", v)
	}
}

func TestSeqCountReadBounded(t *testing.T) {
	var s SeqCount
	// No writer: stabilizes immediately, no spins.
	v, spins, ok := s.ReadBounded(8)
	if !ok || spins != 0 || v%2 != 0 {
		t.Fatalf("idle ReadBounded = (%d, %d, %v)", v, spins, ok)
	}
	if !s.Validate(v) {
		t.Fatal("bounded read does not validate")
	}
	// Writer camped in its section: the budget must bound the loop and
	// report failure instead of spinning forever.
	s.Begin()
	_, spins, ok = s.ReadBounded(8)
	if ok {
		t.Fatal("ReadBounded succeeded inside an open write section")
	}
	if spins != 8 {
		t.Fatalf("spent %d spins, budget was 8", spins)
	}
	s.End()
	if _, _, ok := s.ReadBounded(8); !ok {
		t.Fatal("ReadBounded failed after the section closed")
	}
}

func TestSeqCountConcurrent(t *testing.T) {
	var s SeqCount
	var mu sync.Mutex // serializes writers
	// The protected data uses atomics so the test is exact under the race
	// detector; the seqlock's job is preventing *torn pairs*, which plain
	// atomic loads alone would not.
	var data [2]atomic.Int64
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			s.Begin()
			data[0].Store(i)
			data[1].Store(i)
			s.End()
			mu.Unlock()
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 5000; i++ {
				for {
					v := s.Read()
					a, b := data[0].Load(), data[1].Load()
					if s.Validate(v) {
						if a != b {
							t.Errorf("torn read: %d != %d", a, b)
						}
						break
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	<-writerDone
}
