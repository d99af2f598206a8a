package memo

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func wantStats(t *testing.T, c *Cache[string, int], entries int, hits, misses uint64) {
	t.Helper()
	if e, h, m := c.Stats(); e != entries || h != hits || m != misses {
		t.Fatalf("stats = (%d entries, %d hits, %d misses), want (%d, %d, %d)", e, h, m, entries, hits, misses)
	}
}

// TestConcurrentColdGetBuildsOnce: sixteen callers racing for one cold key
// share one build, the first caller's, and every one of them gets its
// value.
func TestConcurrentColdGetBuildsOnce(t *testing.T) {
	c := New[string, int](8)
	var builds atomic.Int32
	builder := int32(-1)
	release := make(chan struct{})
	const callers = 16
	vals := make([]int, callers)
	hits := make([]bool, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], hits[i], errs[i] = c.Get("k", func() (int, error) {
				builds.Add(1)
				builder = int32(i)
				<-release
				return 42, nil
			})
		}(i)
	}
	// Every caller is counted before it builds or waits, so once all
	// sixteen are counted the build is still held and the other fifteen
	// are waiting on it.
	for {
		if _, h, m := c.Stats(); h+m == callers {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for i := range vals {
		if errs[i] != nil || vals[i] != 42 {
			t.Fatalf("caller %d got (%d, %v), want (42, nil)", i, vals[i], errs[i])
		}
		if hits[i] != (int32(i) != builder) {
			t.Fatalf("caller %d reports hit=%t; caller %d built the value", i, hits[i], builder)
		}
	}
	wantStats(t, c, 1, callers-1, 1)
}

// TestCounts pins the exact hit, miss and entry accounting of Get and
// Lookup, and that Reset empties the cache and its counters.
func TestCounts(t *testing.T) {
	c := New[string, int](8)
	builds := 0
	build := func(v int) func() (int, error) {
		return func() (int, error) { builds++; return v, nil }
	}
	if v, hit, err := c.Get("a", build(1)); v != 1 || hit || err != nil {
		t.Fatalf("cold Get = (%d, %t, %v), want (1, false, nil)", v, hit, err)
	}
	if v, hit, err := c.Get("a", build(9)); v != 1 || !hit || err != nil {
		t.Fatalf("warm Get = (%d, %t, %v), want (1, true, nil)", v, hit, err)
	}
	if _, _, err := c.Get("b", build(2)); err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 2, 1, 2)
	if v, ok := c.Lookup("b"); !ok || v != 2 {
		t.Fatalf("Lookup(b) = (%d, %t), want (2, true)", v, ok)
	}
	if _, ok := c.Lookup("c"); ok {
		t.Fatal("Lookup found an absent key")
	}
	wantStats(t, c, 2, 2, 2)
	if builds != 2 {
		t.Fatalf("%d builds, want 2", builds)
	}

	c.Reset()
	wantStats(t, c, 0, 0, 0)
	if _, ok := c.Lookup("a"); ok {
		t.Fatal("Lookup found a key after Reset")
	}
	if v, hit, _ := c.Get("a", build(1)); v != 1 || hit {
		t.Fatalf("Get after Reset = (%d, %t), want a fresh build of 1", v, hit)
	}
	wantStats(t, c, 1, 0, 1)
}

// TestWholesaleClear: an insert into a full cache forgets every entry,
// and a forgotten key rebuilds to an equal value.
func TestWholesaleClear(t *testing.T) {
	const limit = 4
	c := New[string, int](limit)
	square := func(i int) func() (int, error) { return func() (int, error) { return i * i, nil } }
	for i := 0; i < limit; i++ {
		if _, _, err := c.Get(strconv.Itoa(i), square(i)); err != nil {
			t.Fatal(err)
		}
	}
	wantStats(t, c, limit, 0, limit)
	if _, _, err := c.Get("4", square(4)); err != nil {
		t.Fatal(err)
	}
	wantStats(t, c, 1, 0, limit+1)
	if _, ok := c.Lookup("1"); ok {
		t.Fatal("a full cache kept an old entry past its limit")
	}
	v, hit, err := c.Get("1", square(1))
	if err != nil || hit || v != 1 {
		t.Fatalf("rebuild after clear = (%d, %t, %v), want (1, false, nil)", v, hit, err)
	}
	wantStats(t, c, 2, 0, limit+2)
}

// TestErrorIsKept: a failed build's error reaches the next caller without
// a second build, and Lookup does not report the failed key.
func TestErrorIsKept(t *testing.T) {
	c := New[string, int](8)
	boom := errors.New("boom")
	builds := 0
	fail := func() (int, error) { builds++; return 0, boom }
	if _, hit, err := c.Get("k", fail); hit || err != boom {
		t.Fatalf("first Get = (%t, %v), want (false, boom)", hit, err)
	}
	if _, hit, err := c.Get("k", fail); !hit || err != boom {
		t.Fatalf("second Get = (%t, %v), want (true, boom)", hit, err)
	}
	if builds != 1 {
		t.Fatalf("%d builds of a failing key, want 1", builds)
	}
	if _, ok := c.Lookup("k"); ok {
		t.Fatal("Lookup returned a failed entry")
	}
	wantStats(t, c, 1, 1, 1)
}

// TestLookupSkipsInFlight: while a build runs, Lookup reports the key
// absent and counts nothing; once it finishes, Lookup finds it.
func TestLookupSkipsInFlight(t *testing.T) {
	c := New[string, int](8)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Get("k", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started
	if _, ok := c.Lookup("k"); ok {
		t.Fatal("Lookup returned an entry whose build is in flight")
	}
	wantStats(t, c, 1, 0, 1)
	close(release)
	<-done
	if v, ok := c.Lookup("k"); !ok || v != 7 {
		t.Fatalf("Lookup after the build = (%d, %t), want (7, true)", v, ok)
	}
	wantStats(t, c, 1, 1, 1)
}

// TestZeroValueUnbounded: a zero Cache is empty and ready for use, and
// neither it nor one with a limit <= 0 ever clears.
func TestZeroValueUnbounded(t *testing.T) {
	var zero Cache[string, int]
	caches := map[string]*Cache[string, int]{"zero": &zero, "New(0)": New[string, int](0), "New(-1)": New[string, int](-1)}
	for name, c := range caches {
		if _, ok := c.Lookup("0"); ok {
			t.Fatalf("%s: Lookup found a key in an empty cache", name)
		}
		wantStats(t, c, 0, 0, 0)
		const keys = 100
		for round := 0; round < 2; round++ {
			for i := 0; i < keys; i++ {
				v, hit, err := c.Get(strconv.Itoa(i), func() (int, error) { return i, nil })
				if err != nil || v != i || hit != (round == 1) {
					t.Fatalf("%s: round %d Get(%d) = (%d, %t, %v)", name, round, i, v, hit, err)
				}
			}
		}
		wantStats(t, c, keys, keys, keys)
		c.Reset()
		wantStats(t, c, 0, 0, 0)
	}
}
