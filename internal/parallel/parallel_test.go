package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachCoversAllIndices checks every index runs exactly once and the
// results land where the caller put them, at several pool widths.
func TestForEachCoversAllIndices(t *testing.T) {
	const n = 97
	for _, workers := range []int{0, 1, 2, 3, 8, n + 5} {
		out := make([]int, n)
		var calls atomic.Int64
		err := ForEach(n, workers, func(i int) error {
			calls.Add(1)
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := calls.Load(); got != n {
			t.Fatalf("workers=%d: %d calls, want %d", workers, got, n)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestForEachEmpty checks the degenerate sizes.
func TestForEachEmpty(t *testing.T) {
	for _, n := range []int{0, -3} {
		called := false
		if err := ForEach(n, 4, func(int) error { called = true; return nil }); err != nil {
			t.Fatal(err)
		}
		if called {
			t.Fatalf("n=%d: fn called", n)
		}
	}
}

// TestForEachLowestIndexError: when several indices fail, the error
// reported is the one from the lowest failing index — index 0 here, which
// is always dispatched first.
func TestForEachLowestIndexError(t *testing.T) {
	const n = 64
	errs := make([]error, n)
	for i := range errs {
		errs[i] = fmt.Errorf("unit %d failed", i)
	}
	for _, workers := range []int{1, 4, 16} {
		err := ForEach(n, workers, func(i int) error { return errs[i] })
		if !errors.Is(err, errs[0]) {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, errs[0])
		}
	}
}

// TestForEachCancelsPromptly: with the first unit failing immediately and
// every other unit parked on a gate, the pool must stop dispatching — only
// the initial in-flight batch (at most `workers` units) ever starts, not
// the full thousand.
func TestForEachCancelsPromptly(t *testing.T) {
	const (
		n       = 1000
		workers = 4
	)
	boom := errors.New("boom")
	gate := make(chan struct{})
	var started atomic.Int64
	go func() {
		// Release the parked units once unit 0 has begun (it is always
		// dispatched first) and its error has had time to register.
		for started.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
		close(gate)
	}()
	err := ForEach(n, workers, func(i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		<-gate
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if got := started.Load(); got > workers {
		t.Fatalf("%d units started after first error, want <= %d", got, workers)
	}
}
