// Package parallel provides the bounded worker pool the evaluation stack
// fans independent simulation units through: per-host cluster engines,
// random-placement trials, pair-sweep load levels, and whole experiment
// variants. Units are handed out by index so callers aggregate results in
// a fixed order regardless of scheduling — the parallel paths stay
// bit-identical to their sequential counterparts.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) using at most workers
// concurrent goroutines. workers <= 0 selects GOMAXPROCS; workers == 1 (or
// n == 1) degenerates to a plain in-order loop with no goroutines.
//
// On the first error the pool cancels: indices not yet dispatched are
// skipped, in-flight calls run to completion, and ForEach returns the
// error with the lowest index — deterministic even though which calls were
// in flight at failure time is not. fn must write any results it produces
// into caller-owned, index-disjoint storage.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64 // next index to dispatch
		stopped atomic.Bool  // set on first error; halts dispatch
		wg      sync.WaitGroup

		mu       sync.Mutex
		firstIdx int = -1
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					stopped.Store(true)
					mu.Lock()
					if firstIdx == -1 || i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
