package par

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

func TestDoCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 101} {
			seen := make([]int32, n)
			Do(workers, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestDoItemsCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 101} {
			seen := make([]int32, n)
			DoItems(workers, n, func(i int) {
				atomic.AddInt32(&seen[i], 1)
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestSerialRunsInline(t *testing.T) {
	// With one worker the callback must run on the calling goroutine (no
	// allocation, deterministic order): verify order for DoItems.
	var order []int
	DoItems(1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("serial DoItems out of order: %v", order)
		}
	}
}

func TestDoErrNilOnSuccess(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if err := DoErr(workers, 50, func(lo, hi int) error { return nil }); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
	}
}

func TestDoErrSmallestChunkWins(t *testing.T) {
	// Every chunk fails with an error naming its start index; the chunk with
	// the smallest start must win regardless of scheduling.
	for _, workers := range []int{1, 2, 4, 8} {
		err := DoErr(workers, 64, func(lo, hi int) error {
			return fmt.Errorf("chunk %d", lo)
		})
		if err == nil || err.Error() != "chunk 0" {
			t.Fatalf("workers=%d: got %v, want chunk 0", workers, err)
		}
	}
}

func TestDoItemsErrSmallestIndexWins(t *testing.T) {
	// Indexes are claimed in increasing order, so index 50 is always reached
	// and its error beats any later one in the deterministic fold.
	for _, workers := range []int{1, 2, 4, 8} {
		err := DoItemsErr(workers, 100, func(i int) error {
			if i >= 50 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 50" {
			t.Fatalf("workers=%d: got %v, want item 50", workers, err)
		}
	}
}

func TestDoItemsErrStopsClaiming(t *testing.T) {
	// After the first error, workers must stop claiming fresh indexes: with
	// a serial run the count is exact; with parallel workers it can overshoot
	// only by in-flight items (< n).
	var count atomic.Int32
	err := DoItemsErr(1, 1000, func(i int) error {
		count.Add(1)
		if i == 10 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || count.Load() != 11 {
		t.Fatalf("serial: err=%v count=%d, want 11", err, count.Load())
	}
	count.Store(0)
	err = DoItemsErr(4, 100000, func(i int) error {
		if i == 0 {
			return fmt.Errorf("boom")
		}
		count.Add(1)
		return nil
	})
	if err == nil {
		t.Fatal("parallel: expected error")
	}
	if got := count.Load(); got > 1000 {
		t.Fatalf("parallel: %d items ran after the first error — workers did not stop claiming", got)
	}
}

func TestErrVariantsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		DoErr(8, 64, func(lo, hi int) error { return fmt.Errorf("x") })
		DoItemsErr(8, 64, func(i int) error { return fmt.Errorf("x") })
	}
	// Both helpers join every worker before returning, so the count must be
	// back at (or below) the baseline immediately.
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Fatalf("goroutines grew from %d to %d after failed runs", base, got)
	}
}

// panicAt panics with its index when the index is in the set; a named frame
// so the tests can find it in the captured worker stack.
func panicAt(i int, set map[int]bool) {
	if set[i] {
		panic(i)
	}
}

// recovered runs fn and returns the panic it raised on the calling
// goroutine, unwrapped from *Panic, plus the worker stack when wrapped.
func recovered(fn func()) (val any, stack []byte) {
	defer func() {
		r := recover()
		if p, ok := r.(*Panic); ok {
			val, stack = p.Value, p.Stack
			return
		}
		val = r
	}()
	fn()
	return nil, nil
}

func TestWorkerPanicSurfacesOnCaller(t *testing.T) {
	set := map[int]bool{30: true, 50: true, 63: true}
	helpers := map[string]func(workers int){
		"Do": func(w int) {
			Do(w, 64, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					panicAt(i, set)
				}
			})
		},
		"DoItems": func(w int) { DoItems(w, 64, func(i int) { panicAt(i, set) }) },
		"DoErr": func(w int) {
			DoErr(w, 64, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					panicAt(i, set)
				}
				return nil
			})
		},
		"DoItemsErr": func(w int) {
			DoItemsErr(w, 64, func(i int) error { panicAt(i, set); return nil })
		},
	}
	base := runtime.NumGoroutine()
	for name, run := range helpers {
		for _, workers := range []int{1, 2, 4, 8} {
			for rep := 0; rep < 10; rep++ {
				val, stack := recovered(func() { run(workers) })
				// Chunk starts and item indexes both order the panics so the
				// one raised at item 30 always wins.
				if val != 30 {
					t.Fatalf("%s workers=%d: recovered %v, want the panic at index 30", name, workers, val)
				}
				if workers > 1 && !strings.Contains(string(stack), "par.panicAt") {
					t.Fatalf("%s workers=%d: worker stack lacks the panicking frame:\n%s", name, workers, stack)
				}
			}
		}
	}
	// Every worker is joined before the re-panic.
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Fatalf("goroutines grew from %d to %d after panicking runs", base, got)
	}
}

func TestWorkerPanicOutranksError(t *testing.T) {
	val, _ := recovered(func() {
		DoItemsErr(4, 64, func(i int) error {
			if i == 0 {
				return fmt.Errorf("boom")
			}
			panicAt(i, map[int]bool{40: true})
			return nil
		})
	})
	// The error at 0 stops claiming, so the panic at 40 may never run; when
	// it does, it must surface rather than be swallowed.
	if val != nil && val != 40 {
		t.Fatalf("recovered %v", val)
	}
	val, _ = recovered(func() {
		DoErr(4, 64, func(lo, hi int) error {
			if lo == 0 {
				return fmt.Errorf("boom")
			}
			panic(lo)
		})
	})
	if val != 16 {
		t.Fatalf("DoErr: recovered %v, want the panic of chunk 16", val)
	}
}

func TestNestedWorkerPanicNotRewrapped(t *testing.T) {
	val, _ := recovered(func() {
		Do(2, 2, func(lo, hi int) {
			DoItems(2, 8, func(i int) { panicAt(i, map[int]bool{3: true}) })
		})
	})
	if val != 3 {
		t.Fatalf("recovered %v (%T), want the inner panic value 3", val, val)
	}
}
