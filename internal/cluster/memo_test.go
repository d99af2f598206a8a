package cluster

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"pocolo/internal/servermgr"
)

// smallFixture trims the fixture to a two-host cluster with a short dwell
// so cache-miss recomputation stays cheap under concurrency.
func smallFixture(t *testing.T) Config {
	t.Helper()
	cfg := fixture(t)
	cfg.LC = cfg.LC[:2]
	cfg.BE = cfg.BE[:2]
	cfg.Dwell = time.Second
	return cfg
}

// TestResetMemoUnderConcurrentRunPlacement hammers ResetMemo while several
// goroutines run the same placement: every result — whether freshly
// simulated after a reset or served from the cache — must be identical to
// the reference, and the race detector must stay quiet.
func TestResetMemoUnderConcurrentRunPlacement(t *testing.T) {
	ResetMemo()
	defer ResetMemo()

	cfg := smallFixture(t)
	placement := mustPlace(t, cfg)
	ref, err := RunPlacement(cfg, placement, servermgr.PowerOptimized)
	if err != nil {
		t.Fatal(err)
	}

	const workers, iters = 4, 3
	results := make([][]Result, workers)
	errs := make([]error, workers)
	stop := make(chan struct{})
	var resetter sync.WaitGroup
	resetter.Add(1)
	go func() {
		defer resetter.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ResetMemo()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := RunPlacement(cfg, placement, servermgr.PowerOptimized)
				if err != nil {
					errs[w] = err
					return
				}
				results[w] = append(results[w], res)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	resetter.Wait()

	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i, res := range results[w] {
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("worker %d run %d diverged from reference under concurrent ResetMemo", w, i)
			}
		}
	}
}

// TestFingerprintKeys pins the cache-identity rules: seed, dwell, and the
// invariants flag are part of a run's fingerprint; the worker-pool size is
// deliberately not.
func TestFingerprintKeys(t *testing.T) {
	cfg := smallFixture(t)
	placement := mustPlace(t, cfg)
	key := func(c Config) string { return placementKey(&c, placement, servermgr.PowerOptimized) }

	base := key(cfg)
	if other := key(cfg); other != base {
		t.Fatal("identical configs produced different fingerprints")
	}

	seeded := cfg
	seeded.Seed++
	if key(seeded) == base {
		t.Error("differing seeds share a fingerprint")
	}
	dwelled := cfg
	dwelled.Dwell += time.Second
	if key(dwelled) == base {
		t.Error("differing dwells share a fingerprint")
	}
	checked := cfg
	checked.Invariants = true
	if key(checked) == base {
		t.Error("an invariant-checked run shares a fingerprint with an unchecked one")
	}
	pooled := cfg
	pooled.Parallel = 7
	if key(pooled) != base {
		t.Error("worker-pool size leaked into the fingerprint; parallelism must not change results")
	}
	sharded := cfg
	sharded.Shard = ShardSettings{PodSize: 2}
	if key(sharded) == base {
		t.Error("differing pod layouts share a fingerprint")
	}
	regapped := cfg
	regapped.Shard = ShardSettings{PodSize: 2, RebalanceGap: 0.5}
	if key(regapped) == key(sharded) {
		t.Error("differing rebalance gaps share a fingerprint")
	}
	mgmt := placementKey(&cfg, placement, servermgr.PowerUnaware)
	if mgmt == base {
		t.Error("differing LC policies share a fingerprint")
	}
}

// TestMemoStatsCounts pins the exact hit/miss accounting across misses,
// hits, and fingerprint changes — including that an invariant-checked run
// never satisfies itself from an unchecked entry.
func TestMemoStatsCounts(t *testing.T) {
	ResetMemo()
	defer ResetMemo()

	cfg := smallFixture(t)
	placement := mustPlace(t, cfg)
	run := func(c Config) {
		t.Helper()
		if _, err := RunPlacement(c, placement, servermgr.PowerOptimized); err != nil {
			t.Fatal(err)
		}
	}

	run(cfg)
	if _, h, m := placementRuns.Stats(); h != 0 || m != 1 {
		t.Fatalf("after first run: hits=%d misses=%d, want 0/1", h, m)
	}
	run(cfg)
	if _, h, m := placementRuns.Stats(); h != 1 || m != 1 {
		t.Fatalf("after repeat: hits=%d misses=%d, want 1/1", h, m)
	}
	seeded := cfg
	seeded.Seed += 100
	run(seeded)
	if _, h, m := placementRuns.Stats(); h != 1 || m != 2 {
		t.Fatalf("after reseeded run: hits=%d misses=%d, want 1/2", h, m)
	}
	checked := cfg
	checked.Invariants = true
	run(checked)
	if _, h, m := placementRuns.Stats(); h != 1 || m != 3 {
		t.Fatalf("invariant-checked run must miss an unchecked entry: hits=%d misses=%d, want 1/3", h, m)
	}
	run(checked)
	if _, h, m := placementRuns.Stats(); h != 2 || m != 3 {
		t.Fatalf("repeated checked run must hit: hits=%d misses=%d, want 2/3", h, m)
	}
	ResetMemo()
	if _, h, m := placementRuns.Stats(); h != 0 || m != 0 {
		t.Fatalf("ResetMemo left counters at %d/%d", h, m)
	}
	run(cfg)
	if _, h, m := placementRuns.Stats(); h != 0 || m != 1 {
		t.Fatalf("after reset the cache must be cold: hits=%d misses=%d, want 0/1", h, m)
	}
}
