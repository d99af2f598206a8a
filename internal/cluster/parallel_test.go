package cluster

import (
	"reflect"
	"testing"

	"pocolo/internal/servermgr"
	"pocolo/internal/workload"
)

// TestParallelMatchesSequential is the golden equality check behind the
// whole parallel layer: with the memo reset before each side (every run
// live), a cluster run fanned across a worker pool must be bit-identical
// to the sequential run — same hosts, same trials, same load levels, same
// aggregates.
func TestParallelMatchesSequential(t *testing.T) {
	defer ResetMemo()

	cfg := fixture(t)
	placement := mustPlace(t, cfg)
	cat := workload.MustDefaults()
	lc, _ := cat.ByName("sphinx")
	be, _ := cat.ByName("graph")

	type side struct {
		placed, random Result
		pair           PairResult
	}
	run := func(workers int) side {
		t.Helper()
		c := cfg
		c.Parallel = workers
		ResetMemo()
		var s side
		var err error
		if s.placed, err = RunPlacement(c, placement, servermgr.PowerOptimized); err != nil {
			t.Fatal(err)
		}
		// Random exercises the trial fan-out in runRandomExpectation.
		if s.random, err = Run(c, Random); err != nil {
			t.Fatal(err)
		}
		if s.pair, err = RunPair(c, lc, be); err != nil {
			t.Fatal(err)
		}
		if _, hits, _ := placementRuns.Stats(); hits != 0 {
			t.Fatalf("%d memo hits on a side that must run live", hits)
		}
		return s
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq.placed, par.placed) {
		t.Errorf("RunPlacement diverges:\nsequential %+v\nparallel   %+v", seq.placed, par.placed)
	}
	if !reflect.DeepEqual(seq.random, par.random) {
		t.Errorf("Run(Random) diverges:\nsequential %+v\nparallel   %+v", seq.random, par.random)
	}
	if !reflect.DeepEqual(seq.pair, par.pair) {
		t.Errorf("RunPair diverges:\nsequential %+v\nparallel   %+v", seq.pair, par.pair)
	}
}

// TestMemoServesIdenticalIsolatedResults: a repeated run is a cache hit,
// returns exactly the first result, and hands out an independent copy the
// caller may mutate.
func TestMemoServesIdenticalIsolatedResults(t *testing.T) {
	ResetMemo()
	defer ResetMemo()

	cfg := fixture(t)
	placement := mustPlace(t, cfg)

	first, err := RunPlacement(cfg, placement, servermgr.PowerOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if _, hits, misses := placementRuns.Stats(); hits != 0 || misses == 0 {
		t.Fatalf("after first run: hits=%d misses=%d", hits, misses)
	}
	second, err := RunPlacement(cfg, placement, servermgr.PowerOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if _, hits, _ := placementRuns.Stats(); hits == 0 {
		t.Fatal("second identical run was not a cache hit")
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cache-served result diverges:\nfirst  %+v\nsecond %+v", first, second)
	}

	// Mutating a served result must not corrupt the cache.
	for name := range second.Hosts {
		m := second.Hosts[name]
		m.BEMeanThr = -1
		second.Hosts[name] = m
	}
	second.Placement["graph"] = "tampered"
	third, err := RunPlacement(cfg, placement, servermgr.PowerOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, third) {
		t.Error("mutating a cache-served result leaked into the cache")
	}

	// A different seed is a different fingerprint — a miss, not a hit.
	other := cfg
	other.Seed = cfg.Seed + 1
	_, hitsBefore, _ := placementRuns.Stats()
	if _, err := RunPlacement(other, placement, servermgr.PowerOptimized); err != nil {
		t.Fatal(err)
	}
	if _, hitsAfter, _ := placementRuns.Stats(); hitsAfter != hitsBefore {
		t.Error("run with a different seed was served from the cache")
	}

	cat := workload.MustDefaults()
	lc, _ := cat.ByName("sphinx")
	be, _ := cat.ByName("graph")
	firstPair, err := RunPair(cfg, lc, be)
	if err != nil {
		t.Fatal(err)
	}
	secondPair, err := RunPair(cfg, lc, be)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(firstPair, secondPair) {
		t.Errorf("cache-served pair diverges:\nfirst  %+v\nsecond %+v", firstPair, secondPair)
	}
	secondPair.TotalNorm[0] = -1
	thirdPair, err := RunPair(cfg, lc, be)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(firstPair, thirdPair) {
		t.Error("mutating a cache-served pair leaked into the cache")
	}
}
