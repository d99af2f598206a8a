package pocolo

// The benchmark harness: one testing.B target per paper artifact (Tables
// I–II, Figs. 1–6, 8–15), each regenerating the artifact end to end, plus
// micro-benchmarks for the hot paths (model fitting, demand solutions,
// assignment solvers, the simulation engine). Run with:
//
//	go test -bench=. -benchmem
import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pocolo/internal/assign"
	"pocolo/internal/cluster"
	"pocolo/internal/experiments"
	"pocolo/internal/latency"
	"pocolo/internal/machine"
	"pocolo/internal/profiler"
	"pocolo/internal/sim"
	"pocolo/internal/sim/des"
	"pocolo/internal/stats"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// benchSuite builds a fresh experiment suite (short dwell so evaluation
// benches stay tractable under -bench).
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	s, err := experiments.NewSuite(42)
	if err != nil {
		b.Fatal(err)
	}
	s.Dwell = 2 * time.Second
	return s
}

func BenchmarkTableI(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := s.TableI(); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TableII(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9to11(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig9to11(); err != nil {
			b.Fatal(err)
		}
	}
}

// The evaluation figures build a fresh suite per iteration so the suite's
// own per-policy memo never carries over. These benches therefore report
// the steady-state regeneration cost of each artifact: profiling plus
// model fitting plus cluster sweeps, where repeated identical sweeps are
// served by the process-wide cache in internal/cluster. Run with
// cluster.SetMemo(false) to force every simulation to re-execute.

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite(b).Fig12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite(b).Fig13(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite(b).Fig14(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite(b).Fig15(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks for the hot paths ---

func benchSamples(b *testing.B) []utility.Sample {
	b.Helper()
	cat := workload.MustDefaults()
	spec, err := cat.ByName("sphinx")
	if err != nil {
		b.Fatal(err)
	}
	p, err := profiler.Run(profiler.Config{Spec: spec, Machine: machine.XeonE52650(), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return p.Samples
}

func BenchmarkCobbDouglasFit(b *testing.B) {
	samples := benchSamples(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := utility.Fit("sphinx", profiler.ResourceNames, samples); err != nil {
			b.Fatal(err)
		}
	}
}

func benchModel(b *testing.B) *utility.Model {
	b.Helper()
	m, err := utility.Fit("sphinx", profiler.ResourceNames, benchSamples(b))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkDemandCapped(b *testing.B) {
	m := benchModel(b)
	upper := []float64{11, 18}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.DemandCapped(70, upper); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinPowerAlloc(b *testing.B) {
	m := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MinPowerAlloc(5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntegerMinPowerAlloc(b *testing.B) {
	// The server manager's per-second allocation search: a full scan of
	// the 12×20 knob grid.
	m := benchModel(b)
	caps := []int{12, 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.IntegerMinPowerAlloc(5, caps); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPlan(b *testing.B) *utility.Plan {
	b.Helper()
	p, err := utility.NewPlan(benchModel(b), []int{12, 20})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkPlannerBuild(b *testing.B) {
	// One-time frontier construction for a 12×20 grid; amortized across
	// every subsequent lookup via the shared plan cache.
	m := benchModel(b)
	caps := []int{12, 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := utility.NewPlan(m, caps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlannerLookup(b *testing.B) {
	// The planner's replacement for IntegerMinPowerAlloc on the tick path:
	// a cold binary search over the precomputed least-power frontier. Same
	// target as BenchmarkIntegerMinPowerAlloc so the two are a direct
	// speedup comparison; must stay allocation-free.
	p := benchPlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := p.MinPower2(5, -1); !ok {
			b.Fatal("target 5 infeasible")
		}
	}
}

func BenchmarkPlannerLookupWarm(b *testing.B) {
	// Warm-start path: the previous tick's frontier cell is re-checked in
	// O(1) before any binary search, the common case under slowly-varying
	// load.
	p := benchPlan(b)
	_, _, cell, ok := p.MinPower2(5, -1)
	if !ok {
		b.Fatal("target 5 infeasible")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, cell, ok = p.MinPower2(5, cell); !ok {
			b.Fatal("target 5 infeasible")
		}
	}
}

func randomMatrix(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = rng.Float64() * 100
		}
	}
	return m
}

func BenchmarkHungarian8x8(b *testing.B) {
	m := randomMatrix(8, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := assign.Hungarian(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplexAssignment4x4(b *testing.B) {
	m := randomMatrix(4, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := assign.LP(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscreteEventQueue(b *testing.B) {
	cfg := des.Config{ArrivalRate: 1000, Servers: 4, ServiceRate: 1500, Duration: 10 * time.Second, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := des.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSecond(b *testing.B) {
	// One simulated second (10 ticks) of a colocated host.
	cat := workload.MustDefaults()
	lc, err := cat.ByName("xapian")
	if err != nil {
		b.Fatal(err)
	}
	be, err := cat.ByName("graph")
	if err != nil {
		b.Fatal(err)
	}
	trace, err := workload.NewConstantTrace(0.5)
	if err != nil {
		b.Fatal(err)
	}
	host, err := sim.NewHost(sim.HostConfig{Name: "bench", Machine: machine.XeonE52650(), LC: lc, BE: be, Trace: trace, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	engine, err := sim.NewEngine(100 * time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	if err := engine.AddHost(host); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engine.Run(time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// --- decision-tracing overhead ---

// BenchmarkTraceDisabled measures the disabled tracing path: every record
// call on a nil *Tracer must be a nil check and nothing else. The 0
// allocs/op this reports is the observability-off guarantee the bench
// regression gate enforces.
func BenchmarkTraceDisabled(b *testing.B) {
	var tr *trace.Tracer
	now := time.Unix(0, 0).UTC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan("control_tick")
		tr.ControlDecision(now, trace.ControlDecision{Tick: i, Load: 0.5, Path: trace.PathPlannerHit, Feasible: true})
		sp.End(now)
	}
}

// BenchmarkTraceEnabled is the same record sequence against a live ring —
// the steady-state per-decision cost when tracing is on (the ring wraps,
// so this includes overwrite behavior).
func BenchmarkTraceEnabled(b *testing.B) {
	tr := trace.New("bench", trace.DefaultEvents)
	now := time.Unix(0, 0).UTC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan("control_tick")
		tr.ControlDecision(now, trace.ControlDecision{Tick: i, Load: 0.5, Path: trace.PathPlannerHit, Feasible: true})
		sp.End(now)
	}
}

// BenchmarkFig12NoMemo and BenchmarkFig12Traced are the macro overhead
// pair: the same evaluation figure with the sweep memo forced off (a
// traced run always bypasses it), untraced vs fully traced. Their ratio
// is the end-to-end enabled-path overhead the acceptance bar caps at 5%.
func BenchmarkFig12NoMemo(b *testing.B) {
	defer cluster.SetMemo(cluster.SetMemo(false))
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite(b).Fig12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12Traced(b *testing.B) {
	defer cluster.SetMemo(cluster.SetMemo(false))
	for i := 0; i < b.N; i++ {
		s := benchSuite(b)
		s.Trace = trace.NewSet(trace.DefaultEvents)
		if _, err := s.Fig12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := latency.MustNewHistogram(0.01, 10000, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Record(float64(i%1000) + 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOLS(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	xs := make([][]float64, 240)
	ys := make([]float64, 240)
	for i := range xs {
		xs[i] = []float64{rng.Float64() * 12, rng.Float64() * 20}
		ys[i] = 3 + 2*xs[i][0] + xs[i][1] + rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.OLS(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks ---

func BenchmarkAblationSolvers(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationSolvers(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSlack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite(b).AblationSlack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationKnobOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite(b).AblationKnobOrder(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMyopic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite(b).AblationMyopic(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationProfiling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite(b).AblationProfiling(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite(b).AblationSharing(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOnline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite(b).AblationOnline(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidationDES(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ValidationDES(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationScale(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationScale(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBudget(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationBudget(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeedSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchSuite(b).SeedSensitivity(42, 1042); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinPowerAllocBox(b *testing.B) {
	m := benchModel(b)
	bounds := []float64{12, 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.MinPowerAllocBox(5, bounds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelSaveLoad(b *testing.B) {
	models, err := profiler.FitAll(machine.XeonE52650(), append(workload.MustDefaults().LC(), workload.MustDefaults().BE()...), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := utility.SaveModels(&buf, models); err != nil {
			b.Fatal(err)
		}
		if _, err := utility.LoadModels(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- hyperscale sharded assignment ---

// benchShardedConfig builds an n-host fleet: hosts cycle the catalog's LC
// classes with caps staggered across a few whole-watt steps (so columns
// spread over several memo fingerprints, as a jittered fleet would), jobs
// cycle the BE classes, and every instance shares its class's fitted model.
func benchShardedConfig(b *testing.B, hosts, jobs int) cluster.MatrixConfig {
	b.Helper()
	cat := workload.MustDefaults()
	base, err := profiler.FitAll(machine.XeonE52650(), append(cat.LC(), cat.BE()...), 1)
	if err != nil {
		b.Fatal(err)
	}
	models := make(map[string]*utility.Model, hosts+jobs)
	lcs, bes := cat.LC(), cat.BE()
	lc := make([]*workload.Spec, hosts)
	for i := range lc {
		c := *lcs[i%len(lcs)]
		c.Name = fmt.Sprintf("host-%d", i)
		c.ProvisionedPowerW += float64(i % 5)
		lc[i] = &c
		models[c.Name] = base[lcs[i%len(lcs)].Name]
	}
	be := make([]*workload.Spec, jobs)
	for i := range be {
		c := *bes[i%len(bes)]
		c.Name = fmt.Sprintf("job-%d", i)
		be[i] = &c
		models[c.Name] = base[bes[i%len(bes)].Name]
	}
	return cluster.MatrixConfig{Machine: machine.XeonE52650(), LC: lc, BE: be, Models: models}
}

// benchClusterSolve is the from-scratch cost: pod construction, matrix
// build (through the shared cell memo), and a full solve in every pod.
func benchClusterSolve(b *testing.B, hosts int) {
	cfg := benchShardedConfig(b, hosts, hosts*3/4)
	epoch := time.Unix(0, 0).UTC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh, err := cluster.NewSharded(cfg, cluster.ShardSettings{})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sh.Solve(nil, epoch); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClusterResolve is the steady-state incremental path the from-scratch
// bench is measured against: one host's power cap flips between two values
// each iteration, Refresh recomputes only that column, and the owning pod
// repairs its matching with a single dual-preserving augmentation while
// every other pod is untouched.
func benchClusterResolve(b *testing.B, hosts int) {
	cfg := benchShardedConfig(b, hosts, hosts*3/4)
	epoch := time.Unix(0, 0).UTC()
	sh, err := cluster.NewSharded(cfg, cluster.ShardSettings{})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := sh.Solve(nil, epoch); err != nil {
		b.Fatal(err)
	}
	target := cfg.LC[len(cfg.LC)/2]
	basecap := target.ProvisionedPowerW
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target.ProvisionedPowerW = basecap - float64(7+i%2)
		if _, err := sh.Refresh(); err != nil {
			b.Fatal(err)
		}
		if _, _, err := sh.Solve(nil, epoch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCluster1k(b *testing.B)         { benchClusterSolve(b, 1024) }
func BenchmarkCluster1kResolve(b *testing.B)  { benchClusterResolve(b, 1024) }
func BenchmarkCluster10k(b *testing.B)        { benchClusterSolve(b, 10240) }
func BenchmarkCluster10kResolve(b *testing.B) { benchClusterResolve(b, 10240) }

func BenchmarkHungarian32x32(b *testing.B) {
	m := randomMatrix(32, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := assign.Hungarian(m); err != nil {
			b.Fatal(err)
		}
	}
}
