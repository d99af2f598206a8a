package utility_test

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pocolo/internal/invariant"
	"pocolo/internal/machine"
	"pocolo/internal/profiler"
	"pocolo/internal/utility"
)

// directUnawareFrontier reimplements the server manager's power-unaware
// frontier scan (first feasible ways per cores column, dominated points
// dropped) as the reference for AppendUnawareFrontier.
func directUnawareFrontier(m *utility.Model, target float64, cores, ways int) []utility.GridPoint {
	var frontier []utility.GridPoint
	vec := make([]float64, 2)
	for c := 1; c <= cores; c++ {
		w := -1
		vec[0] = float64(c)
		for cand := 1; cand <= ways; cand++ {
			vec[1] = float64(cand)
			if m.Perf(vec) >= target {
				w = cand
				break
			}
		}
		if w == -1 {
			continue
		}
		if n := len(frontier); n > 0 && frontier[n-1].W == w {
			continue
		}
		frontier = append(frontier, utility.GridPoint{C: c, W: w})
	}
	return frontier
}

// assertPlanMatchesDirect checks, for every target, that the plan's
// min-power answer (allocation and error-ness) and its power-unaware
// frontier are identical to the direct searches.
func assertPlanMatchesDirect(t *testing.T, m *utility.Model, caps []int, targets []float64) {
	t.Helper()
	plan, err := utility.NewPlan(m, caps)
	if err != nil {
		t.Fatalf("NewPlan(%v): %v", caps, err)
	}
	for _, target := range targets {
		want, wantErr := m.IntegerMinPowerAlloc(target, caps)
		got, gotErr := plan.MinPowerAlloc(target)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("target %v: direct err=%v, plan err=%v", target, wantErr, gotErr)
		}
		if wantErr == nil && !reflect.DeepEqual(want, got) {
			t.Fatalf("target %v: direct alloc %v, plan alloc %v", target, want, got)
		}
		if len(caps) == 2 {
			c, w, _, feasible := plan.MinPower2(target, -1)
			if feasible != (wantErr == nil) {
				t.Fatalf("target %v: direct err=%v, MinPower2 feasible=%v", target, wantErr, feasible)
			}
			if feasible && (c != want[0] || w != want[1]) {
				t.Fatalf("target %v: direct alloc %v, MinPower2 (%d,%d)", target, want, c, w)
			}
			wantFrontier := directUnawareFrontier(m, target, caps[0], caps[1])
			gotFrontier := plan.AppendUnawareFrontier(target, nil)
			if !reflect.DeepEqual(wantFrontier, gotFrontier) {
				t.Fatalf("target %v: direct frontier %v, plan frontier %v", target, wantFrontier, gotFrontier)
			}
		}
	}
}

// planTargets builds a target set that stresses the quantization edges:
// the exact achievable perf values of sampled grid points (where the
// feasible set changes membership), the adjacent representable floats on
// both sides, plus infeasible and degenerate values.
func planTargets(m *utility.Model, caps []int, rng *rand.Rand) []float64 {
	vec := make([]float64, len(caps))
	var targets []float64
	addPoint := func(alloc []int) {
		for j, v := range alloc {
			vec[j] = float64(v)
		}
		p := m.Perf(vec)
		if math.IsNaN(p) || p <= 0 {
			return
		}
		targets = append(targets,
			p,
			math.Nextafter(p, 0),
			math.Nextafter(p, math.Inf(1)),
			p/2,
		)
	}
	lo := make([]int, len(caps))
	hi := make([]int, len(caps))
	for j, c := range caps {
		lo[j] = 1
		hi[j] = c
	}
	addPoint(lo)
	addPoint(hi)
	for n := 0; n < 12; n++ {
		alloc := make([]int, len(caps))
		for j, c := range caps {
			alloc[j] = 1 + rng.Intn(c)
		}
		addPoint(alloc)
	}
	// Degenerate and out-of-range targets: zero, negative, NaN, +Inf, and
	// far beyond the grid's peak.
	for j, c := range caps {
		vec[j] = float64(c)
	}
	peak := m.Perf(vec)
	targets = append(targets, 0, -1, math.NaN(), math.Inf(1), peak*4, 1e-300)
	return targets
}

// TestPlanMatchesDirectFitted pins the equivalence on a realistically
// fitted model (the profiler's sphinx-like first LC app on the Table I
// platform) over the real machine caps.
func TestPlanMatchesDirectFitted(t *testing.T) {
	mc := machine.XeonE52650()
	rng := rand.New(rand.NewSource(7))
	cat, err := invariant.GenCatalog(rng, mc, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	models, err := profiler.FitAll(mc, append(cat.LC(), cat.BE()...), 7)
	if err != nil {
		t.Fatal(err)
	}
	caps := []int{mc.Cores, mc.LLCWays}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			assertPlanMatchesDirect(t, m, caps, planTargets(m, caps, rand.New(rand.NewSource(11))))
		})
	}
}

// TestPlanMatchesDirectGenerated is the property test: across randomly
// generated platforms and profiler-fitted catalogs, the planner must agree
// with the exact search on every target, including the quantization edges.
func TestPlanMatchesDirectGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep in -short mode")
	}
	rng := rand.New(rand.NewSource(42))
	for draw := 0; draw < 6; draw++ {
		mc := invariant.GenMachine(rng)
		cat, err := invariant.GenCatalog(rng, mc, 1, 1)
		if err != nil {
			t.Fatalf("draw %d: %v", draw, err)
		}
		models, err := profiler.FitAll(mc, append(cat.LC(), cat.BE()...), int64(draw)*131)
		if err != nil {
			t.Fatalf("draw %d: %v", draw, err)
		}
		caps := []int{mc.Cores, mc.LLCWays}
		for name, m := range models {
			assertPlanMatchesDirect(t, m, caps, planTargets(m, caps, rng))
			// Also at deliberately awkward caps: single columns and rows
			// exercise the frontier's degenerate shapes.
			for _, altCaps := range [][]int{{1, mc.LLCWays}, {mc.Cores, 1}, {1, 1}, {3, 2}} {
				assertPlanMatchesDirect(t, m, altCaps, planTargets(m, altCaps, rng))
			}
			_ = name
		}
	}
}

// TestPlanWarmStart checks that warm-start lookups (reusing the previous
// cell) return exactly what a cold lookup would, across a slowly moving
// target — the manager's actual access pattern.
func TestPlanWarmStart(t *testing.T) {
	m := testModel(t)
	caps := []int{12, 20}
	plan, err := utility.NewPlan(m, caps)
	if err != nil {
		t.Fatal(err)
	}
	cell := -1
	warm := 0
	for i := 0; i < 400; i++ {
		target := 0.5 + float64(i)*0.05 // sweeps past the grid's peak into infeasible
		cw, ww, wc, wok := plan.MinPower2(target, cell)
		cc, wcold, _, cok := plan.MinPower2(target, -1)
		if wok != cok || (wok && (cw != cc || ww != wcold)) {
			t.Fatalf("target %v: warm (%d,%d,%v) != cold (%d,%d,%v)", target, cw, ww, wok, cc, wcold, cok)
		}
		if wok && wc == cell {
			warm++
		}
		cell = wc
	}
	if warm == 0 {
		t.Fatal("slow target sweep never reused a cell; warm start is not engaging")
	}
}

// TestPlanCacheSharing checks the process-wide cache returns one shared
// plan per (model, caps) pair, counts hits/misses, and is safe under
// concurrent cold-key races.
func TestPlanCacheSharing(t *testing.T) {
	m := testModel(t)
	caps := []int{12, 20}
	utility.Plans.Reset()
	defer utility.Plans.Reset()
	p1, err := utility.SharedPlan(m, caps)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := utility.SharedPlan(m, caps)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("same (model, caps) produced two distinct plans")
	}
	if _, err := utility.SharedPlan(m, []int{6, 20}); err != nil {
		t.Fatal(err)
	}
	entries, hits, misses := utility.Plans.Stats()
	if entries != 2 || hits != 1 || misses != 2 {
		t.Fatalf("stats = (%d entries, %d hits, %d misses), want (2, 1, 2)", entries, hits, misses)
	}

	// Concurrent cold gets on a fresh cache must build exactly once and
	// agree (run under -race this also proves the sharing is race-clean).
	utility.Plans.Reset()
	var wg sync.WaitGroup
	plans := make([]*utility.Plan, 16)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := utility.SharedPlan(m, caps)
			if err != nil {
				t.Error(err)
				return
			}
			// Exercise the shared plan concurrently.
			if _, err := p.MinPowerAlloc(1); err != nil {
				t.Error(err)
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	for _, p := range plans[1:] {
		if p != plans[0] {
			t.Fatal("concurrent gets returned distinct plans")
		}
	}
}

// TestPlanDeepCopy checks a built plan is independent of the source model:
// mutating the model afterwards must not change the plan's answers.
func TestPlanDeepCopy(t *testing.T) {
	m := testModel(t)
	caps := []int{12, 20}
	plan, err := utility.NewPlan(m, caps)
	if err != nil {
		t.Fatal(err)
	}
	before, err := plan.MinPowerAlloc(1)
	if err != nil {
		t.Fatal(err)
	}
	m.Alpha0 *= 100
	m.Alpha[0] = 9
	m.P[1] = 1e6
	after, err := plan.MinPowerAlloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("plan answer changed after model mutation: %v -> %v", before, after)
	}
}

// TestPlanCapErrors checks construction rejects the same caps the direct
// search rejects, and that oversized grids are refused.
func TestPlanCapErrors(t *testing.T) {
	m := testModel(t)
	if _, err := utility.NewPlan(m, []int{12}); err == nil {
		t.Fatal("wrong cap count accepted")
	}
	if _, err := utility.NewPlan(m, []int{0, 20}); err == nil {
		t.Fatal("zero cap accepted")
	}
	if _, err := utility.NewPlan(m, []int{1 << 12, 1 << 12}); err == nil {
		t.Fatal("oversized grid accepted")
	}
	if _, err := utility.NewPlan(nil, []int{12, 20}); err == nil {
		t.Fatal("nil model accepted")
	}
}

// testModel fits a small realistic 2-resource model from profiler samples.
func testModel(t *testing.T) *utility.Model {
	t.Helper()
	mc := machine.XeonE52650()
	rng := rand.New(rand.NewSource(3))
	cat, err := invariant.GenCatalog(rng, mc, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	models, err := profiler.FitAll(mc, cat.LC(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		return m
	}
	t.Fatal("no model fitted")
	return nil
}
