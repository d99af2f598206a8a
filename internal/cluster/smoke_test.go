package cluster

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"pocolo/internal/trace"
)

// TestSharded1kSmoke is the CI-scale end-to-end check on the sharded
// path: a seeded 1024-host, 768-job fleet with jittered caps is solved
// through 16 pods, rebalanced, and diffed against the unsharded
// from-scratch optimum (full matrix + Hungarian). The sharded placement
// must be feasible, within tolerance of the optimum, never above it,
// and the decision trace it emits must validate.
//
// The unsharded comparator is cubic in fleet size, so the test is too
// slow for the race-enabled default suite; CI runs it as a dedicated
// step with POCOLO_SMOKE_1K=1.
func TestSharded1kSmoke(t *testing.T) {
	if os.Getenv("POCOLO_SMOKE_1K") == "" {
		t.Skip("set POCOLO_SMOKE_1K=1 to run the 1k-host smoke (CI runs it as a dedicated step)")
	}
	cfg := shardFixture(t, 1024, 768)
	rng := rand.New(rand.NewSource(7))
	for _, lc := range cfg.LC {
		lc.ProvisionedPowerW = math.Round(lc.ProvisionedPowerW * (1 + 0.08*(2*rng.Float64()-1)))
	}

	epoch := time.Unix(0, 0).UTC()
	tr := trace.New("smoke", 0)
	sh, err := NewSharded(cfg, ShardSettings{})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Pods() != 16 {
		t.Fatalf("pods = %d, want 16", sh.Pods())
	}
	moves, err := sh.Rebalance(tr, epoch)
	if err != nil {
		t.Fatal(err)
	}
	_, total, err := sh.Solve(tr, epoch)
	if err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, cfg, sh.Placement())
	if err := sh.SelfCheck(); err != nil {
		t.Fatal(err)
	}

	opt := unshardedTotal(t, cfg)
	t.Logf("sharded %.1f vs unsharded optimum %.1f (%.2f%%), %d migrations",
		total, opt, 100*total/opt, moves)
	if total > opt*(1+1e-9) {
		t.Fatalf("sharded total %v exceeds the optimum %v", total, opt)
	}
	if total < 0.95*opt {
		t.Fatalf("sharded total %v below 95%% of the optimum %v", total, opt)
	}

	if err := trace.Validate(tr.Events()); err != nil {
		t.Fatal(err)
	}
	podSolves, sharded := 0, 0
	for _, ev := range tr.Events() {
		if ev.Kind != trace.KindSolve {
			continue
		}
		switch {
		case ev.Solve.Pod != "":
			podSolves++
		case ev.Solve.Method == "sharded":
			sharded++
		}
	}
	if podSolves != 16 || sharded != 1 {
		t.Fatalf("traced %d pod solves and %d sharded summaries, want 16 and 1", podSolves, sharded)
	}
}

// TestHyperscaleAuctionMatchesSequential1k runs the seeded hyperscale
// scenario of `pocolo-sim -hyperscale 1024 -pod-size 64
// -hyperscale-rounds 3 -churn 0.2` twice: once with every pod refresh
// forced through the sequential per-line repair, once at the default
// batch threshold. The auction batch re-solve is an optimization, never a
// policy change, so the results must be identical and the canonical
// traces byte-identical once the batch_* work counters are zeroed. The
// default run must engage the auction, or the comparison proves nothing.
//
// 1024 hosts are too slow for the race-enabled default suite; CI runs
// it unraced in the same dedicated step as TestSharded1kSmoke.
func TestHyperscaleAuctionMatchesSequential1k(t *testing.T) {
	if os.Getenv("POCOLO_SMOKE_1K") == "" {
		t.Skip("set POCOLO_SMOKE_1K=1 to run the 1k-host smoke (CI runs it as a dedicated step)")
	}
	base := fixture(t)
	run := func(batchThreshold int) (HyperscaleResult, []byte, int) {
		// Each run starts from an empty delta-cell memo, as a fresh
		// process does, so the cell counters compare too.
		ResetMemo()
		tr := trace.New("hyperscale", 0)
		res, err := RunHyperscale(HyperscaleConfig{
			Fleet: FleetConfig{
				Machine:   base.Machine,
				LCClasses: base.LC,
				BEClasses: base.BE,
				Models:    base.Models,
				Hosts:     1024,
				Jobs:      768,
				Seed:      42,
				Shard:     ShardSettings{PodSize: 64, batchThreshold: batchThreshold},
			},
			Rounds: 3,
			Churn:  0.2,
			Trace:  tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		events := tr.Events()
		if err := trace.Validate(events); err != nil {
			t.Fatal(err)
		}
		auctions := 0
		for i := range events {
			s := &events[i].Solve
			if events[i].Kind == trace.KindSolve && s.BatchRounds > 0 {
				auctions++
			}
			s.BatchDirty, s.BatchRounds, s.BatchAugments = 0, 0, 0
		}
		var jsonl bytes.Buffer
		if err := trace.WriteJSONL(&jsonl, events, false); err != nil {
			t.Fatal(err)
		}
		return res, jsonl.Bytes(), auctions
	}
	seqRes, seqTrace, seqAuctions := run(1)
	defRes, defTrace, defAuctions := run(0)
	t.Logf("solve summaries with auction rounds: %d at the default threshold, %d sequential", defAuctions, seqAuctions)
	if seqAuctions != 0 {
		t.Fatalf("forced-sequential run engaged the auction in %d solve summaries", seqAuctions)
	}
	if defAuctions == 0 {
		t.Fatal("default run never engaged the auction; the comparison covers one path only")
	}
	if !reflect.DeepEqual(seqRes, defRes) {
		t.Fatalf("results differ:\nsequential: %+v\ndefault:    %+v", seqRes, defRes)
	}
	if !bytes.Equal(seqTrace, defTrace) {
		t.Fatal("traces differ beyond the batch_* counters")
	}
}
