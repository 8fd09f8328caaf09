package reuse

import (
	"runtime"
	"sync"
	"testing"
)

func TestFreeKeepsUntilACollection(t *testing.T) {
	f := make(Free[[64]int], 2)
	p := f.Get()
	p[0] = 42
	f.Put(p)
	if q := f.Get(); q != p {
		t.Fatal("Get did not return the value just put back")
	}
	f.Put(p)
	p = nil
	runtime.GC()
	if q := f.Get(); q[0] != 0 {
		t.Fatal("a value idle through a collection was not reclaimed")
	}
}

func TestFreeDropsWhenFull(t *testing.T) {
	f := make(Free[int], 1)
	a, b := new(int), new(int)
	f.Put(a)
	f.Put(b)
	if f.Get() != a || f.Get() == b {
		t.Fatal("a full list kept a second value")
	}
	runtime.KeepAlive(b)
}

// TestFreeConcurrent hands values between goroutines: no value may be
// held by two of them at once.
func TestFreeConcurrent(t *testing.T) {
	f := make(Free[int], 4)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 1000 {
				p := f.Get()
				*p = i
				runtime.Gosched()
				if *p != i {
					t.Error("a value was shared between two holders")
					return
				}
				f.Put(p)
			}
		}()
	}
	wg.Wait()
}
