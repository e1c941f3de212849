// Package par is the tiny fork-join helper behind Options.Parallelism: the
// extraction kernels shard their O(n²)/O(n·k) loops over a bounded set of
// goroutines. Callers keep per-shard writes disjoint and fold shard results
// with index tie-breaks, so every pipeline result is bit-identical to a
// serial run at any worker count.
//
// A panic inside a worker never escapes its goroutine: every helper
// recovers it, joins the remaining workers, and re-panics on the caller's
// goroutine with a *Panic, so the caller's own recover (the facade's
// InternalError boundary) sees it exactly as it would a serial panic.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers normalizes a Parallelism option: values <= 0 mean one worker per
// available CPU (runtime.GOMAXPROCS(0)).
func Workers(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// Panic is the value Do, DoItems, DoErr and DoItemsErr re-panic with on the
// caller's goroutine when a worker panicked. When several workers panic, the
// one at the smallest chunk start or item index wins, so the choice is
// deterministic. A panic that is already a *Panic (a nested helper's) passes
// through unwrapped.
type Panic struct {
	// Value is the worker's original panic value.
	Value any
	// Stack is the panicking worker goroutine's stack trace.
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}

// Do splits [0, n) into one contiguous chunk per worker and runs fn(lo, hi)
// on each concurrently. With one worker (or n <= 1) it runs inline with no
// goroutine or allocation. Use for loops whose per-index cost is roughly
// uniform.
func Do(workers, n int, fn func(lo, hi int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var col collector
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					col.reportPanic(lo, r)
				}
			}()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	col.rethrow()
}

// DoItems runs fn(i) for every i in [0, n), handing indexes to workers
// dynamically through an atomic counter. Use for loops with uneven per-index
// cost (e.g. triangular distance-matrix rows, where early rows hold more
// pairs than late ones). With one worker it runs inline in index order.
// After a worker panics, the others stop claiming fresh indexes.
func DoItems(workers, n int, fn func(i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var stop atomic.Bool
	var col collector
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := -1
			defer func() {
				if r := recover(); r != nil {
					col.reportPanic(i, r)
					stop.Store(true)
				}
			}()
			for !stop.Load() {
				if i = int(next.Add(1)) - 1; i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	col.rethrow()
}

// collector folds worker errors and panics deterministically: the one
// produced at the smallest index wins, no matter which worker reports first.
type collector struct {
	mu     sync.Mutex
	errIdx int
	err    error
	pIdx   int
	p      *Panic
}

func (c *collector) report(i int, err error) {
	c.mu.Lock()
	if c.err == nil || i < c.errIdx {
		c.errIdx, c.err = i, err
	}
	c.mu.Unlock()
}

// reportPanic records a recovered worker panic with the worker's stack. It
// runs inside the worker's deferred recover, so debug.Stack still shows the
// panicking frames.
func (c *collector) reportPanic(i int, r any) {
	p, ok := r.(*Panic)
	if !ok {
		p = &Panic{Value: r, Stack: debug.Stack()}
	}
	c.mu.Lock()
	if c.p == nil || i < c.pIdx {
		c.pIdx, c.p = i, p
	}
	c.mu.Unlock()
}

// rethrow re-panics on the caller's goroutine with the winning worker panic,
// if any. Called only after every worker has been joined.
func (c *collector) rethrow() {
	if c.p != nil {
		panic(c.p)
	}
}

// DoErr is Do with error propagation: chunks run concurrently, and the first
// error (by chunk start index, so the choice is deterministic) is returned.
// Chunks that already started still run to completion — fn is responsible for
// its own early exit (typically by consulting the same cancellation check
// that made a sibling fail) — and every worker is joined before DoErr
// returns, so cancellation never leaks goroutines. A worker panic outranks
// every error.
func DoErr(workers, n int, fn func(lo, hi int) error) error {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			return fn(0, n)
		}
		return nil
	}
	chunk := (n + workers - 1) / workers
	var col collector
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					col.reportPanic(lo, r)
				}
			}()
			if err := fn(lo, hi); err != nil {
				col.report(lo, err)
			}
		}(lo, hi)
	}
	wg.Wait()
	col.rethrow()
	return col.err
}

// DoItemsErr is DoItems with error propagation and early stop: once any item
// fails, workers stop claiming new indexes, drain, and the error produced at
// the smallest index is returned. All workers are joined before return — a
// cancelled run leaves no goroutines behind. With one worker it runs inline
// in index order and stops at the first error. A worker panic stops claiming
// the same way and outranks every error.
func DoItemsErr(workers, n int, fn func(i int) error) error {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var stop atomic.Bool
	var col collector
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := -1
			defer func() {
				if r := recover(); r != nil {
					col.reportPanic(i, r)
					stop.Store(true)
				}
			}()
			for !stop.Load() {
				if i = int(next.Add(1)) - 1; i >= n {
					return
				}
				if err := fn(i); err != nil {
					col.report(i, err)
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	col.rethrow()
	return col.err
}
