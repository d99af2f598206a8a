package servermgr

import (
	"reflect"
	"testing"
	"time"

	"pocolo/internal/machine"
	"pocolo/internal/sim"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// forceExact clears the manager's plan, the seam the tests use to reach
// the exact per-tick grid search: the path a manager takes when
// utility.Plans refuses its grid, and the planner's reference.
func forceExact(m *Manager) { m.plan = nil }

// runManaged builds one managed host running lcName with beName
// co-located (identical seeds and configuration apart from exact) and
// runs it for dur, returning the final metrics and the manager for
// counter inspection. exact forces the exact search from the first tick.
func runManaged(t *testing.T, lcName, beName string, policy LCPolicy, exact bool, dur time.Duration) (sim.Metrics, *Manager) {
	t.Helper()
	cat := workload.MustDefaults()
	lc, err := cat.ByName(lcName)
	if err != nil {
		t.Fatal(err)
	}
	be, err := cat.ByName(beName)
	if err != nil {
		t.Fatal(err)
	}
	host, err := sim.NewHost(sim.HostConfig{
		Name:    "golden",
		Machine: machine.XeonE52650(),
		LC:      lc,
		BE:      be,
		Trace:   workload.UniformSweep(2 * time.Second),
		Seed:    21,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := New(Config{
		Host:   host,
		Model:  fitted(t, lcName),
		Policy: policy,
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if exact {
		forceExact(mgr)
	}
	eng, err := sim.NewEngine(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddHost(host); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Attach(eng); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(dur); err != nil {
		t.Fatal(err)
	}
	return host.Metrics(), mgr
}

// TestPlannerGoldenEquivalence is the golden DeepEqual suite: a full
// managed run with the planner must be bit-identical — metrics, final
// allocations, throttle state — to the same run with the exact search,
// for both policies and every catalog LC app, each with every catalog BE
// co-runner.
func TestPlannerGoldenEquivalence(t *testing.T) {
	cat := workload.MustDefaults()
	dur := workload.UniformSweep(2 * time.Second).Duration()
	for _, policy := range []LCPolicy{PowerOptimized, PowerUnaware} {
		t.Run(policy.String(), func(t *testing.T) {
			for _, lc := range cat.LC() {
				for _, be := range cat.BE() {
					t.Run(lc.Name+"+"+be.Name, func(t *testing.T) {
						mOn, mgrOn := runManaged(t, lc.Name, be.Name, policy, false, dur)
						mOff, mgrOff := runManaged(t, lc.Name, be.Name, policy, true, dur)
						if !mgrOn.PlannerEnabled() || mgrOff.PlannerEnabled() {
							t.Fatalf("paths not separated: planner run enabled=%v, exact run enabled=%v", mgrOn.PlannerEnabled(), mgrOff.PlannerEnabled())
						}
						if !reflect.DeepEqual(mOn, mOff) {
							t.Fatalf("planner metrics differ from exact search:\nplanner: %+v\nexact:   %+v", mOn, mOff)
						}
						fOn, dOn := mgrOn.BEThrottle()
						fOff, dOff := mgrOff.BEThrottle()
						if fOn != fOff || dOn != dOff {
							t.Fatalf("throttle state differs: planner (%v, %v), exact (%v, %v)", fOn, dOn, fOff, dOff)
						}
						if mgrOn.Boost() != mgrOff.Boost() {
							t.Fatalf("boost differs: planner %d, exact %d", mgrOn.Boost(), mgrOff.Boost())
						}
					})
				}
			}
		})
	}
}

// TestPlannerCounters checks the counter taxonomy: a planner run serves
// lookups from the plan (with warm starts once the target settles) and
// never falls back; an exact run only falls back.
func TestPlannerCounters(t *testing.T) {
	_, mgrOn := runManaged(t, "sphinx", "pbzip", PowerOptimized, false, 10*time.Second)
	hits, warm, fallbacks := mgrOn.PlannerCounters()
	if !mgrOn.PlannerEnabled() {
		t.Fatal("planner did not resolve for the fitted model")
	}
	if hits == 0 {
		t.Fatalf("planner run recorded no hits (hits=%d warm=%d fallbacks=%d)", hits, warm, fallbacks)
	}
	if warm == 0 {
		t.Fatalf("constant-dwell sweep recorded no warm starts (hits=%d warm=%d)", hits, warm)
	}
	if fallbacks != 0 {
		t.Fatalf("planner run fell back %d times", fallbacks)
	}

	_, mgrOff := runManaged(t, "sphinx", "pbzip", PowerOptimized, true, 10*time.Second)
	hits, warm, fallbacks = mgrOff.PlannerCounters()
	if hits != 0 || warm != 0 {
		t.Fatalf("exact run recorded plan lookups (hits=%d warm=%d)", hits, warm)
	}
	if fallbacks == 0 {
		t.Fatal("exact run recorded no exact-search fallbacks")
	}
}

// TestRefusedPlanFallsBackToExact covers the only route to the exact
// search outside the tests' seam: a platform whose cores × ways grid
// exceeds utility.MaxPlanPoints, which utility.Plans refuses. The manager
// still runs, reports the planner off, and counts only fallbacks.
func TestRefusedPlanFallsBackToExact(t *testing.T) {
	mc := machine.XeonE52650()
	mc.Name, mc.Cores, mc.LLCWays = "huge-grid", 260, 260
	if mc.Cores*mc.LLCWays <= utility.MaxPlanPoints {
		t.Fatalf("grid %dx%d fits the planner's %d points", mc.Cores, mc.LLCWays, utility.MaxPlanPoints)
	}
	for _, policy := range []LCPolicy{PowerOptimized, PowerUnaware} {
		t.Run(policy.String(), func(t *testing.T) {
			cat := workload.MustDefaults()
			lc, err := cat.ByName("xapian")
			if err != nil {
				t.Fatal(err)
			}
			host, err := sim.NewHost(sim.HostConfig{
				Name: "huge", Machine: mc, LC: lc, Trace: constTrace(t, 0.5), Seed: 21,
			})
			if err != nil {
				t.Fatal(err)
			}
			mgr, err := New(Config{Host: host, Model: fitted(t, "xapian"), Policy: policy, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if mgr.PlannerEnabled() {
				t.Fatal("manager resolved a plan for a grid over MaxPlanPoints")
			}
			eng, err := sim.NewEngine(100 * time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.AddHost(host); err != nil {
				t.Fatal(err)
			}
			if err := mgr.Attach(eng); err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(3 * time.Second); err != nil {
				t.Fatal(err)
			}
			hits, warm, fallbacks := mgr.PlannerCounters()
			if hits != 0 || warm != 0 || fallbacks == 0 {
				t.Fatalf("refused plan: hits=%d warm=%d fallbacks=%d, want only fallbacks", hits, warm, fallbacks)
			}
			if a, err := host.Server().Alloc("xapian"); err != nil || a.Cores == 0 {
				t.Fatalf("exact search granted the primary nothing: %+v, %v", a, err)
			}
		})
	}
}

// TestSetModelRebindsPlan checks a model swap re-resolves the planner so
// lookups never come from a stale model's tables.
func TestSetModelRebindsPlan(t *testing.T) {
	b := newBench(t, "sphinx", "", constTrace(t, 0.5), PowerOptimized)
	if !b.mgr.PlannerEnabled() {
		t.Fatal("planner did not resolve at construction")
	}
	oldPlan := b.mgr.plan
	next := fitted(t, "img-dnn")
	if err := b.mgr.SetModel(next); err != nil {
		t.Fatal(err)
	}
	if !b.mgr.PlannerEnabled() {
		t.Fatal("planner dropped after model swap")
	}
	if b.mgr.plan == oldPlan {
		t.Fatal("plan not rebuilt after model swap")
	}
	if b.mgr.planCell != -1 {
		t.Fatal("warm-start cell survived a model swap")
	}
	// The rebound plan must answer for the new model: compare one lookup
	// against the direct search.
	cfg := b.host.Machine()
	want, err := next.IntegerMinPowerAlloc(3, []int{cfg.Cores, cfg.LLCWays})
	if err != nil {
		t.Fatal(err)
	}
	c, w, _, ok := b.mgr.plan.MinPower2(3, -1)
	if !ok || c != want[0] || w != want[1] {
		t.Fatalf("rebound plan answered (%d,%d,%v), direct %v", c, w, ok, want)
	}
}

// TestPairSplitTablesMatchDirect checks the hoisted per-axis tables score
// splits bit-identically to the direct model calls.
func TestPairSplitTablesMatchDirect(t *testing.T) {
	for _, name := range []string{"pbzip", "graph"} {
		a := fitted(t, name)
		var tab splitTables
		tab.fill(a, 10, 17)
		vec := make([]float64, 2)
		for c := 0; c <= 10; c++ {
			for w := 0; w <= 17; w++ {
				vec[0], vec[1] = float64(c), float64(w)
				if got, want := tab.perf(c, w), a.Perf(vec); got != want {
					t.Fatalf("%s perf(%d,%d): table %v, direct %v", name, c, w, got, want)
				}
				if got, want := tab.dyn(c, w), a.DynamicPower(vec); got != want {
					t.Fatalf("%s dyn(%d,%d): table %v, direct %v", name, c, w, got, want)
				}
			}
		}
	}
}
