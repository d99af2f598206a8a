package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pocolo/internal/assign"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// shardFixture scales the 4-app fixture to an nBE×nLC fleet by cycling
// renamed per-instance clones of the catalog specs. Cloned instances
// share their class's fitted model, so the delta-cell memo collapses
// them onto a handful of distinct cells — the hyperscale shape.
func shardFixture(t *testing.T, nLC, nBE int) MatrixConfig {
	t.Helper()
	cfg := fixture(t)
	models := make(map[string]*utility.Model, len(cfg.Models)+nLC+nBE)
	for k, v := range cfg.Models {
		models[k] = v
	}
	lc := make([]*workload.Spec, nLC)
	for i := range lc {
		base := cfg.LC[i%len(cfg.LC)]
		c := cloneSpec(base)
		c.Name = fmt.Sprintf("host-%d", i)
		models[c.Name] = cfg.Models[base.Name]
		lc[i] = c
	}
	be := make([]*workload.Spec, nBE)
	for i := range be {
		base := cfg.BE[i%len(cfg.BE)]
		c := cloneSpec(base)
		c.Name = fmt.Sprintf("job-%d", i)
		models[c.Name] = cfg.Models[base.Name]
		be[i] = c
	}
	return MatrixConfig{Machine: cfg.Machine, LC: lc, BE: be, Models: models}
}

// unshardedTotal solves the full-matrix assignment from scratch.
func unshardedTotal(t *testing.T, cfg MatrixConfig) float64 {
	t.Helper()
	mx, err := BuildMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, total, err := assign.Hungarian(mx.Value)
	if err != nil {
		t.Fatal(err)
	}
	return total
}

func checkPlacement(t *testing.T, cfg MatrixConfig, placement map[string]string) {
	t.Helper()
	if len(placement) != len(cfg.BE) {
		t.Fatalf("placement has %d jobs, want %d", len(placement), len(cfg.BE))
	}
	used := make(map[string]string)
	for job, host := range placement {
		if prev, dup := used[host]; dup {
			t.Fatalf("host %s assigned to both %s and %s", host, prev, job)
		}
		used[host] = job
	}
}

func TestApportion(t *testing.T) {
	cases := []struct {
		total int
		caps  []int
		want  []int
	}{
		{10, []int{4, 4, 4}, []int{4, 3, 3}},
		{5, []int{2, 2, 2}, []int{2, 2, 1}},
		{6, []int{2, 2, 2}, []int{2, 2, 2}},
		{0, []int{3, 3}, []int{0, 0}},
		{4, []int{1, 3}, []int{1, 3}},
		{3, []int{1, 4}, []int{1, 2}},
		{2, []int{2, 2, 2, 2}, []int{1, 1, 0, 0}},
	}
	for _, c := range cases {
		got := apportion(c.total, c.caps)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("apportion(%d, %v) = %v, want %v", c.total, c.caps, got, c.want)
		}
		sum := 0
		for i, n := range got {
			sum += n
			if n > c.caps[i] {
				t.Errorf("apportion(%d, %v) overfills bucket %d", c.total, c.caps, i)
			}
		}
		if sum != c.total {
			t.Errorf("apportion(%d, %v) distributed %d", c.total, c.caps, sum)
		}
	}
}

// When every pod contains one host of each capacity class and holds at
// most one job, each job gets its globally best host class, so the
// sharded total is exactly the unsharded optimum.
func TestShardedExactWhenPodsCoverClasses(t *testing.T) {
	cfg := shardFixture(t, 16, 4)
	s, err := NewSharded(cfg, ShardSettings{PodSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, total, err := s.Solve(nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, cfg, s.Placement())
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	want := unshardedTotal(t, cfg)
	if math.Abs(total-want) > 1e-6*math.Abs(want) {
		t.Errorf("sharded total %v, unsharded optimum %v", total, want)
	}
}

func TestShardedWithinToleranceOfUnsharded(t *testing.T) {
	cfg := shardFixture(t, 16, 12)
	s, err := NewSharded(cfg, ShardSettings{PodSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, before, err := s.Solve(nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	want := unshardedTotal(t, cfg)
	if before > want*(1+1e-9) {
		t.Errorf("sharded total %v exceeds unsharded optimum %v", before, want)
	}
	if before < 0.90*want {
		t.Errorf("sharded total %v below 90%% of unsharded optimum %v", before, want)
	}
	// Rebalancing only improves, and never past the optimum.
	if _, err := s.Rebalance(nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	_, after, err := s.Solve(nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, cfg, s.Placement())
	if after < before-1e-9 || after > want*(1+1e-9) {
		t.Errorf("rebalance moved total %v -> %v (optimum %v)", before, after, want)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedRefreshMatchesRebuild(t *testing.T) {
	cfg := shardFixture(t, 8, 6)
	set := ShardSettings{PodSize: 4}
	s, err := NewSharded(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(nil, time.Time{}); err != nil {
		t.Fatal(err)
	}

	// Idle refresh: no drift, no work, no change.
	before := s.Total()
	stats, err := s.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if stats != (DeltaStats{}) {
		t.Errorf("idle refresh did work: %+v", stats)
	}
	if s.Total() != before {
		t.Errorf("idle refresh changed total %v -> %v", before, s.Total())
	}

	// One host cap cut: only that pod's column is touched (one cell per
	// row of the owning pod), and the repaired solver state must match a
	// from-scratch rebuild of the mutated inputs exactly.
	cfg.LC[2].ProvisionedPowerW -= 30
	s.MarkHost(2)
	stats, err = s.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	rows0, _ := s.PodDims(0)
	if got := stats.CellsComputed + stats.CellsReused; got != rows0 {
		t.Errorf("cap cut touched %d cells, want %d (one pod column)", got, rows0)
	}
	fresh, err := NewSharded(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Total(), fresh.Total(); math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Errorf("refreshed total %v, rebuilt total %v", got, want)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}

	// A job model replacement dirties one row of one pod.
	nudged := *cfg.Models[cfg.BE[1].Name]
	nudged.Alpha0 *= 1.07
	cfg.Models[cfg.BE[1].Name] = &nudged
	s.MarkJob(cfg.BE[1].Name)
	stats, err = s.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	_, cols0 := s.PodDims(0)
	if got := stats.CellsComputed + stats.CellsReused; got != cols0 {
		t.Errorf("model nudge touched %d cells, want %d (one pod row)", got, cols0)
	}
	fresh, err = NewSharded(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Total(), fresh.Total(); math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Errorf("refreshed total %v, rebuilt total %v", got, want)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRefreshReadsOnlyMarkedPods pins the marking contract: an
// input changed without a mark is not read, a mark makes the next Refresh
// read its pod alone, and after a job migrates MarkJob finds it in its
// new pod.
func TestShardedRefreshReadsOnlyMarkedPods(t *testing.T) {
	cfg := shardFixture(t, 8, 6)
	s, err := NewSharded(cfg, ShardSettings{PodSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	cfg.LC[5].ProvisionedPowerW -= 30
	if stats, err := s.Refresh(); err != nil || stats != (DeltaStats{}) {
		t.Fatalf("unmarked change refreshed %+v (%v), want no work", stats, err)
	}
	s.MarkHost(5)
	stats, err := s.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	rows1, _ := s.PodDims(1)
	if got := stats.CellsComputed + stats.CellsReused; got != rows1 {
		t.Errorf("marked host refreshed %d cells, want %d (its column in pod 1)", got, rows1)
	}
	placed, _, err := s.Solve(nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range placed {
		if s.jobPod[a.Job] != 1 {
			t.Errorf("Solve reported %s of untouched pod %d", a.Job, s.jobPod[a.Job])
		}
	}

	// Take pod 0 down whole: its jobs migrate to pod 1's free hosts.
	for h := 0; h < 4; h++ {
		s.SetHostDown(h, true)
	}
	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if moves, err := s.Evacuate(); err != nil || moves == 0 {
		t.Fatalf("evacuate moved %d (%v), want pod 0's jobs moved", moves, err)
	}
	job := cfg.BE[0].Name // apportioned to pod 0, evacuated to pod 1
	if s.jobPod[job] != 1 {
		t.Fatalf("%s in pod %d after the evacuation, want pod 1", job, s.jobPod[job])
	}
	nudged := *cfg.Models[job]
	nudged.Alpha0 *= 1.07
	cfg.Models[job] = &nudged
	s.MarkJob(job)
	stats, err = s.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if _, cols1 := s.PodDims(1); stats.CellsComputed+stats.CellsReused != cols1 {
		t.Errorf("model nudge of %s refreshed %+v, want its row in pod 1 (%d cells)", job, stats, cols1)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedRebalanceMigrates(t *testing.T) {
	base := fixture(t)
	models := make(map[string]*utility.Model, 4)
	mk := func(name string, from *workload.Spec, capW float64) *workload.Spec {
		c := cloneSpec(from)
		c.Name = name
		c.ProvisionedPowerW = capW
		models[name] = base.Models[from.Name]
		return c
	}
	// Pod 0 holds two starved hosts (caps barely above idle), pod 1 two
	// well-provisioned ones. Capacity-proportional apportionment puts one
	// job in each pod, so the pod-0 job starts on a starved host with a
	// strictly better free host sitting in pod 1.
	starvedCap := base.Machine.IdlePowerW + 3
	richCap := base.LC[0].ProvisionedPowerW + 40
	lc := []*workload.Spec{
		mk("host-0", base.LC[0], starvedCap),
		mk("host-1", base.LC[0], starvedCap),
		mk("host-2", base.LC[0], richCap),
		mk("host-3", base.LC[0], richCap),
	}
	job := cloneSpec(base.BE[0])
	job.Name = "job-0"
	models[job.Name] = base.Models[base.BE[0].Name]
	job2 := cloneSpec(base.BE[1])
	job2.Name = "job-1"
	models[job2.Name] = base.Models[base.BE[1].Name]
	cfg := MatrixConfig{Machine: base.Machine, LC: lc, BE: []*workload.Spec{job, job2}, Models: models}

	s, err := NewSharded(cfg, ShardSettings{PodSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Total()
	tr := trace.New("cluster", 0)
	moves, err := s.Rebalance(tr, time.Unix(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		t.Fatal("no migration off a starved pod")
	}
	if after := s.Total(); after <= before {
		t.Errorf("rebalance total %v -> %v, want strict improvement", before, after)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	migrations := 0
	for _, ev := range tr.Events() {
		if ev.Kind != trace.KindMigration {
			continue
		}
		migrations++
		if ev.Place.Reason != "rebalance" || ev.Place.Node == ev.Place.From || ev.Place.BE == "" {
			t.Errorf("bad migration event %+v", ev.Place)
		}
	}
	if migrations != moves {
		t.Errorf("traced %d migrations, Rebalance reported %d", migrations, moves)
	}
	// The rebalanced placement must respect matching feasibility.
	if _, _, err := s.Solve(tr, time.Unix(2, 0)); err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, cfg, s.Placement())
	if err := trace.Validate(tr.Events()); err != nil {
		t.Fatal(err)
	}
}

func TestShardedSolveTrace(t *testing.T) {
	cfg := shardFixture(t, 16, 12)
	s, err := NewSharded(cfg, ShardSettings{PodSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("cluster", 0)
	_, total, err := s.Solve(tr, time.Unix(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Events()
	if err := trace.Validate(events); err != nil {
		t.Fatal(err)
	}
	var pods []string
	var agg *trace.SolveSummary
	cells := 0
	for i := range events {
		if events[i].Kind != trace.KindSolve {
			continue
		}
		sv := events[i].Solve
		if sv.Pod != "" {
			pods = append(pods, sv.Pod)
			if sv.Method != "incremental" || sv.Rows == 0 {
				t.Errorf("pod event %+v", sv)
			}
			cells += sv.CellsComputed + sv.CellsReused
			continue
		}
		if agg != nil {
			t.Fatal("multiple aggregate solve events")
		}
		agg = &sv
	}
	if want := []string{"pod-0", "pod-1", "pod-2", "pod-3"}; !reflect.DeepEqual(pods, want) {
		t.Fatalf("pod events %v, want %v", pods, want)
	}
	if agg == nil {
		t.Fatal("no aggregate solve event")
	}
	if agg.Method != "sharded" || agg.Rows != 12 || agg.Cols != 16 || agg.Total != total {
		t.Errorf("aggregate event %+v (total %v)", agg, total)
	}
	// Every matrix cell was either computed or memo-served exactly once
	// across the initial builds.
	if agg.CellsComputed+agg.CellsReused != cells || cells != 12*4 {
		t.Errorf("cell counters: agg %d+%d, pods %d, want %d",
			agg.CellsComputed, agg.CellsReused, cells, 12*4)
	}
	// A second Solve emits zero pending counters: no matrix work happened
	// in between.
	tr2 := trace.New("cluster", 0)
	if _, _, err := s.Solve(tr2, time.Unix(2, 0)); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr2.Events() {
		if ev.Kind == trace.KindSolve && ev.Solve.CellsComputed+ev.Solve.CellsReused != 0 {
			t.Errorf("stale pending counters leaked: %+v", ev.Solve)
		}
	}
}

func TestShardedDegenerate(t *testing.T) {
	// More pods than jobs: trailing pods are empty but still solve.
	cfg := shardFixture(t, 8, 2)
	s, err := NewSharded(cfg, ShardSettings{PodSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pods() != 4 {
		t.Fatalf("pods = %d", s.Pods())
	}
	if _, _, err := s.Solve(nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, cfg, s.Placement())
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rebalance(nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}

	// Single-host pods.
	cfg = shardFixture(t, 4, 3)
	s, err = NewSharded(cfg, ShardSettings{PodSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err = s.Solve(nil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, cfg, s.Placement())
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}

	// Invalid fleets.
	if _, err := NewSharded(MatrixConfig{Machine: cfg.Machine}, ShardSettings{}); err == nil {
		t.Error("accepted a cluster with no hosts")
	}
	over := shardFixture(t, 2, 3)
	if _, err := NewSharded(over, ShardSettings{}); err == nil {
		t.Error("accepted more jobs than hosts")
	}
}

// The auction batch path and the sequential per-line path must repair a
// drifting fleet to the identical assignment value — the batch re-solve
// is an optimization, never a policy change. Drift every host cap and
// every job model at once so each pod's dirty-line count clears the
// forced threshold.
func TestShardedRefreshBatchMatchesSequential(t *testing.T) {
	mkPair := func() (*Sharded, *Sharded, MatrixConfig) {
		cfg := shardFixture(t, 16, 12)
		seq, err := NewSharded(cfg, ShardSettings{PodSize: 8, batchThreshold: 1})
		if err != nil {
			t.Fatal(err)
		}
		auc, err := NewSharded(cfg, ShardSettings{PodSize: 8, batchThreshold: 2})
		if err != nil {
			t.Fatal(err)
		}
		return seq, auc, cfg
	}
	seq, auc, cfg := mkPair()
	for round := 0; round < 3; round++ {
		for i, lc := range cfg.LC {
			lc.ProvisionedPowerW -= float64(3 + (i+round)%5)
			seq.MarkHost(i)
			auc.MarkHost(i)
		}
		for _, be := range cfg.BE {
			nudged := *cfg.Models[be.Name]
			nudged.Alpha0 *= 1.01 + 0.002*float64(round)
			cfg.Models[be.Name] = &nudged
			seq.MarkJob(be.Name)
			auc.MarkJob(be.Name)
		}
		if _, err := seq.Refresh(); err != nil {
			t.Fatal(err)
		}
		if _, err := auc.Refresh(); err != nil {
			t.Fatal(err)
		}
		if got, want := auc.Total(), seq.Total(); got != want {
			t.Fatalf("round %d: auction total %v != sequential total %v", round, got, want)
		}
		if err := auc.SelfCheck(); err != nil {
			t.Fatalf("round %d: auction path: %v", round, err)
		}
		if err := seq.SelfCheck(); err != nil {
			t.Fatalf("round %d: sequential path: %v", round, err)
		}
	}
	// The forced-auction instance reports its batch work in the traced
	// solve summaries; the sequential instance reports dirty lines but no
	// auction rounds.
	trA := trace.New("cluster", 0)
	if _, _, err := auc.Solve(trA, time.Time{}); err != nil {
		t.Fatal(err)
	}
	var sharded *trace.SolveSummary
	for _, ev := range trA.Events() {
		if ev.Kind == trace.KindSolve && ev.Solve.Method == "sharded" {
			s := ev.Solve
			sharded = &s
		}
	}
	if sharded == nil {
		t.Fatal("no sharded solve summary traced")
	}
	if sharded.BatchDirty == 0 || sharded.BatchAugments == 0 {
		t.Errorf("forced-auction summary missing batch counters: %+v", *sharded)
	}
	trS := trace.New("cluster", 0)
	if _, _, err := seq.Solve(trS, time.Time{}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range trS.Events() {
		if ev.Kind == trace.KindSolve && ev.Solve.Method == "sharded" {
			if ev.Solve.BatchRounds != 0 {
				t.Errorf("sequential summary reports auction rounds: %+v", ev.Solve)
			}
			if ev.Solve.BatchDirty == 0 {
				t.Errorf("sequential summary dropped dirty-line count: %+v", ev.Solve)
			}
		}
	}
	// Counters reset once reported.
	trA2 := trace.New("cluster", 0)
	if _, _, err := auc.Solve(trA2, time.Time{}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range trA2.Events() {
		if ev.Kind == trace.KindSolve && ev.Solve.BatchDirty != 0 {
			t.Errorf("batch counters not reset after Solve: %+v", ev.Solve)
		}
	}
}

// TestShardedDownHostsProperty drives multi-pod clusters through seeded
// host outages and recoveries (single hosts and whole pods), host cap
// drift and job and host model drift, each step followed by Refresh and
// Evacuate. After every step the solvers must be self-consistent, every
// pod's value must equal a from-scratch Hungarian solve of its current
// matrix bit for bit, no job may sit on a down host while any pod has a
// free live one, and while jobs do not outnumber live hosts every job
// must be placed on a live host. A twin over the same inputs marks every
// host and job before each Refresh — the full scan — and must hold the
// same placement and total after every step as the cluster that marks
// only what the step changed, so a change the marks miss, or a stranded
// job that Evacuate skips, fails the test.
func TestShardedDownHostsProperty(t *testing.T) {
	cases := []struct {
		seed int64
		set  ShardSettings
	}{
		{1, ShardSettings{PodSize: 6, batchThreshold: 1}},
		{2, ShardSettings{PodSize: 6, batchThreshold: 2}},
		{3, ShardSettings{PodSize: 8}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			cfg := shardFixture(t, 24, 14)
			baseCap := make([]float64, len(cfg.LC))
			hostIdx := make(map[string]int, len(cfg.LC))
			for h, lc := range cfg.LC {
				baseCap[h] = lc.ProvisionedPowerW
				hostIdx[lc.Name] = h
			}
			s, err := NewSharded(cfg, tc.set)
			if err != nil {
				t.Fatal(err)
			}
			full, err := NewSharded(cfg, tc.set)
			if err != nil {
				t.Fatal(err)
			}
			ps := tc.set.PodSize
			down := make([]bool, len(cfg.LC))
			setDown := func(h int, d bool) {
				down[h] = d
				s.SetHostDown(h, d)
				full.SetHostDown(h, d)
			}
			evacuated, overloaded := 0, 0
			for step := 0; step < 60; step++ {
				// A host flip brings a down host back, or takes a live one
				// down half the time: about a third of the fleet is down.
				for k := rng.Intn(3); k > 0; k-- {
					h := rng.Intn(len(cfg.LC))
					if down[h] || rng.Intn(2) == 0 {
						setDown(h, !down[h])
					}
				}
				switch rng.Intn(10) {
				case 0: // whole-pod outage
					p := rng.Intn(s.Pods())
					for h := p * ps; h < min((p+1)*ps, len(cfg.LC)); h++ {
						setDown(h, true)
					}
				case 1: // whole-pod recovery
					p := rng.Intn(s.Pods())
					for h := p * ps; h < min((p+1)*ps, len(cfg.LC)); h++ {
						setDown(h, false)
					}
				}
				if rng.Intn(2) == 0 {
					h := rng.Intn(len(cfg.LC))
					cfg.LC[h].ProvisionedPowerW = baseCap[h] + float64(rng.Intn(5)-2)*4
					if rng.Intn(3) == 0 {
						// A cap just above idle leaves no headroom: every
						// cell of the column is 0, the lowest real value.
						cfg.LC[h].ProvisionedPowerW = cfg.Machine.IdlePowerW + 3
					}
					s.MarkHost(h)
				}
				if rng.Intn(3) == 0 {
					job := cfg.BE[rng.Intn(len(cfg.BE))]
					nudged := *cfg.Models[job.Name]
					nudged.Alpha0 *= 1 + 0.02*(rng.Float64()-0.5)
					cfg.Models[job.Name] = &nudged
					s.MarkJob(job.Name)
				}
				if rng.Intn(4) == 0 {
					h := rng.Intn(len(cfg.LC))
					host := cfg.LC[h]
					nudged := *cfg.Models[host.Name]
					nudged.Alpha0 *= 1 + 0.02*(rng.Float64()-0.5)
					cfg.Models[host.Name] = &nudged
					s.MarkHost(h)
				}
				for h := range cfg.LC {
					full.MarkHost(h)
				}
				for _, job := range cfg.BE {
					full.MarkJob(job.Name)
				}
				moves := 0
				for _, sh := range []*Sharded{s, full} {
					if _, err := sh.Refresh(); err != nil {
						t.Fatalf("step %d: refresh: %v", step, err)
					}
					if moves, err = sh.Evacuate(); err != nil {
						t.Fatalf("step %d: evacuate: %v", step, err)
					}
					if err := sh.SelfCheck(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				evacuated += moves
				if got, want := s.Placement(), full.Placement(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: marked placement %v, full scan %v", step, got, want)
				}
				if got, want := s.Total(), full.Total(); got != want {
					t.Fatalf("step %d: marked total %v, full scan %v", step, got, want)
				}

				live, freeLive, jobs := 0, 0, 0
				for h := range down {
					if !down[h] {
						live++
					}
				}
				for p, pod := range s.pods {
					jobs += pod.builder.Rows()
					for j := 0; j < pod.builder.Cols(); j++ {
						if !down[p*ps+j] && pod.solver.RowOf(j) == -1 {
							freeLive++
						}
					}
					if pod.builder.Rows() == 0 {
						continue
					}
					_, want, err := assign.Hungarian(pod.builder.Matrix().Value)
					if err != nil {
						t.Fatal(err)
					}
					if got := pod.solver.Total(); got != want {
						t.Fatalf("step %d: pod %d total %v, Hungarian %v", step, p, got, want)
					}
				}
				if jobs != len(cfg.BE) {
					t.Fatalf("step %d: %d jobs in pods, want %d", step, jobs, len(cfg.BE))
				}
				for p, pod := range s.pods {
					for r := 0; r < pod.builder.Rows(); r++ {
						if down[p*ps+pod.solver.ColOf(r)] && freeLive > 0 {
							t.Fatalf("step %d: job %s on a down host with %d free live hosts",
								step, pod.builder.RowSpec(r).Name, freeLive)
						}
					}
				}
				if len(cfg.BE) > live {
					overloaded++
					continue
				}
				if _, _, err := s.Solve(nil, time.Time{}); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				placement := s.Placement()
				checkPlacement(t, cfg, placement)
				for job, host := range placement {
					if down[hostIdx[host]] {
						t.Fatalf("step %d: %s placed on down host %s with %d jobs on %d live hosts",
							step, job, host, len(cfg.BE), live)
					}
				}
			}
			if evacuated == 0 || overloaded == 0 {
				t.Fatalf("schedule too gentle: %d evacuations, %d overloaded steps", evacuated, overloaded)
			}
		})
	}
}
