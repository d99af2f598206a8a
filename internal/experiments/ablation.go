package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"pocolo/internal/cluster"
	"pocolo/internal/parallel"
	"pocolo/internal/profiler"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/timeshare"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// The ablation experiments probe the design choices DESIGN.md calls out:
// the placement solver, the latency slack guard, the power capper's knob
// order, whole-range vs myopic placement, profiling cost, and the
// multi-co-runner sharing disciplines.

// SolverRow is one placement solver's outcome on the performance matrix.
type SolverRow struct {
	Solver    string
	Value     float64
	WallTime  time.Duration
	Placement map[string]string
}

// AblationSolversResult compares the placement solvers.
type AblationSolversResult struct {
	Rows []SolverRow
}

// AblationSolvers builds the performance matrix once and solves it with
// every solver, timing each. LP, Hungarian and exhaustive must agree on
// the optimum; random is the baseline's expected quality.
func (s *Suite) AblationSolvers() (AblationSolversResult, error) {
	mx, err := cluster.BuildMatrix(cluster.MatrixConfig{
		Machine: s.Machine, LC: s.Catalog.LC(), BE: s.Catalog.BE(), Models: s.Models,
	})
	if err != nil {
		return AblationSolversResult{}, err
	}
	var res AblationSolversResult
	for _, method := range []string{"lp", "hungarian", "exhaustive"} {
		start := time.Now()
		placement, value, err := mx.Solve(method)
		if err != nil {
			return AblationSolversResult{}, err
		}
		res.Rows = append(res.Rows, SolverRow{
			Solver: method, Value: value, WallTime: time.Since(start), Placement: placement,
		})
	}
	// Random placement: expected value over many draws.
	start := time.Now()
	trials := 200
	sum := 0.0
	for i := 0; i < trials; i++ {
		placement := cluster.PlaceRandom(s.Catalog.LC(), s.Catalog.BE(), s.Seed+int64(i))
		for bi, be := range mx.BENames {
			for li, lc := range mx.LCNames {
				if placement[be] == lc {
					sum += mx.Value[bi][li]
				}
			}
		}
	}
	res.Rows = append(res.Rows, SolverRow{
		Solver: "random(mean)", Value: sum / float64(trials), WallTime: time.Since(start) / time.Duration(trials),
	})
	return res, nil
}

// Table renders the result.
func (r AblationSolversResult) Table() Table {
	t := Table{
		Title:   "Ablation: placement solver choice",
		Caption: "LP/Hungarian/exhaustive must find the same optimum; random shows what naive placement forfeits.",
		Header:  []string{"solver", "matrix value", "wall time"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Solver, f2(row.Value), row.WallTime.String()})
	}
	return t
}

// SlackRow is one slack setting's cluster outcome.
type SlackRow struct {
	TargetSlack float64
	BEThrNorm   float64
	SLOViolFrac float64
	PowerUtil   float64
}

// AblationSlackResult sweeps the latency slack guard.
type AblationSlackResult struct {
	Rows []SlackRow
}

// AblationSlack re-runs the POColo cluster with tighter and looser slack
// guards than the paper's 10%: tighter guards trade best-effort throughput
// for latency safety.
func (s *Suite) AblationSlack() (AblationSlackResult, error) {
	var res AblationSlackResult
	placement, _, err := cluster.Place(s.clusterConfig())
	if err != nil {
		return res, err
	}
	slacks := []float64{0.05, 0.10, 0.20}
	rows := make([]SlackRow, len(slacks))
	err = parallel.ForEach(len(slacks), s.Parallel, func(i int) error {
		cfg := s.clusterConfig()
		cfg.TargetSlack = slacks[i]
		run, err := cluster.RunPlacement(cfg, placement, servermgr.PowerOptimized)
		if err != nil {
			return err
		}
		rows[i] = SlackRow{
			TargetSlack: slacks[i],
			BEThrNorm:   run.BENormThroughput,
			SLOViolFrac: run.SLOViolFrac,
			PowerUtil:   run.MeanPowerUtil,
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// Table renders the result.
func (r AblationSlackResult) Table() Table {
	t := Table{
		Title:   "Ablation: latency slack guard",
		Caption: "POColo placement, power-optimized management; the paper's guard is 10%.",
		Header:  []string{"slack guard", "BE throughput (norm)", "worst SLO violations", "power util"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{pct(row.TargetSlack), f3(row.BEThrNorm), pct(row.SLOViolFrac), pct(row.PowerUtil)})
	}
	return t
}

// KnobOrderRow is one capper configuration's outcome.
type KnobOrderRow struct {
	Order       string
	BEThr       float64
	CapOverFrac float64
	EnergyKWh   float64
}

// AblationKnobOrderResult compares the capper's knob orders.
type AblationKnobOrderResult struct {
	Rows []KnobOrderRow
}

// AblationKnobOrder runs the power-hungriest pairing (graph on an off-peak
// xapian server) with the paper's frequency-first capper and the reversed
// duty-first order. The cube-law argument for frequency-first only covers
// the power that actually scales with frequency (the core component);
// for co-runners whose draw is dominated by frequency-insensitive cache
// and memory activity — graph here — duty-cycling can shed the same watts
// for less throughput, a nuance the paper's fixed order leaves on the
// table.
func (s *Suite) AblationKnobOrder() (AblationKnobOrderResult, error) {
	var res AblationKnobOrderResult
	orders := []bool{false, true}
	rows := make([]KnobOrderRow, len(orders))
	err := parallel.ForEach(len(orders), s.Parallel, func(oi int) error {
		dutyFirst := orders[oi]
		trace, err := workload.NewConstantTrace(0.1)
		if err != nil {
			return err
		}
		lc, err := s.spec("xapian")
		if err != nil {
			return err
		}
		be, err := s.spec("graph")
		if err != nil {
			return err
		}
		model, err := s.model("xapian")
		if err != nil {
			return err
		}
		engine, err := sim.NewEngine(servermgr.CapPeriod)
		if err != nil {
			return err
		}
		host, _, err := servermgr.Start(engine, sim.HostConfig{
			Name: "knob", Machine: s.Machine, LC: lc, BE: be, Trace: trace, Seed: s.Seed,
		}, servermgr.Config{Model: model, Policy: servermgr.PowerOptimized, DutyFirst: dutyFirst})
		if err != nil {
			return err
		}
		if err := engine.Run(60 * time.Second); err != nil {
			return err
		}
		m := host.Metrics()
		order := "freq→duty (paper)"
		if dutyFirst {
			order = "duty→freq"
		}
		rows[oi] = KnobOrderRow{
			Order: order, BEThr: m.BEMeanThr, CapOverFrac: m.CapOverFrac, EnergyKWh: m.EnergyKWh,
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// Table renders the result.
func (r AblationKnobOrderResult) Table() Table {
	t := Table{
		Title:   "Ablation: power capper knob order (graph on xapian @ 10% load)",
		Caption: "Both orders must hold the cap; which keeps more throughput depends on how much of the co-runner's power scales with frequency.",
		Header:  []string{"order", "BE throughput", "over-cap time", "energy (kWh)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Order, f1(row.BEThr), pct(row.CapOverFrac), fmt.Sprintf("%.4f", row.EnergyKWh)})
	}
	return t
}

// MyopicRow contrasts placement quality for one matrix variant.
type MyopicRow struct {
	Variant   string
	Placement map[string]string
	BEThrNorm float64
}

// AblationMyopicResult reproduces the paper's "whole load range, not one
// operating point" argument at the placement level.
type AblationMyopicResult struct {
	Rows []MyopicRow
}

// AblationMyopic builds the performance matrix once from the full 10–90%
// load range and once myopically from a single 50% operating point, then
// simulates both placements. The Fig. 4 lesson predicts the whole-range
// matrix places at least as well.
func (s *Suite) AblationMyopic() (AblationMyopicResult, error) {
	var res AblationMyopicResult
	variants := []struct {
		name  string
		loads []float64
	}{
		{"whole range (10–90%)", nil},
		{"myopic (50% only)", []float64{0.5}},
		{"myopic (10% only)", []float64{0.1}},
	}
	rows := make([]MyopicRow, len(variants))
	err := parallel.ForEach(len(variants), s.Parallel, func(i int) error {
		v := variants[i]
		mx, err := cluster.BuildMatrix(cluster.MatrixConfig{
			Machine: s.Machine, LC: s.Catalog.LC(), BE: s.Catalog.BE(), Models: s.Models, Loads: v.loads,
		})
		if err != nil {
			return err
		}
		placement, _, err := mx.Solve("lp")
		if err != nil {
			return err
		}
		run, err := cluster.RunPlacement(s.clusterConfig(), placement, servermgr.PowerOptimized)
		if err != nil {
			return err
		}
		rows[i] = MyopicRow{
			Variant: v.name, Placement: placement, BEThrNorm: run.BENormThroughput,
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// Table renders the result.
func (r AblationMyopicResult) Table() Table {
	t := Table{
		Title:   "Ablation: whole-load-range vs myopic placement",
		Caption: "Achieved BE throughput when the matrix is estimated from the full load range vs a single operating point.",
		Header:  []string{"matrix variant", "placement", "achieved BE throughput (norm)"},
	}
	for _, row := range r.Rows {
		var placements []string
		for _, be := range sortedKeys(row.Placement) {
			placements = append(placements, fmt.Sprintf("%s→%s", be, row.Placement[be]))
		}
		t.Rows = append(t.Rows, []string{row.Variant, fmt.Sprint(placements), f3(row.BEThrNorm)})
	}
	return t
}

// ProfilingRow is one profiling budget's fitted-model quality.
type ProfilingRow struct {
	Stride      string
	Samples     int
	MeanPerfR2  float64
	MaxPrefErr  float64 // worst |fitted − ground truth| cores preference
	SamePlace   bool    // placement agrees with the full-grid placement
	PlaceString string
}

// AblationProfilingResult sweeps the profiling grid stride.
type AblationProfilingResult struct {
	Rows []ProfilingRow
}

// AblationProfiling refits every model from progressively sparser
// profiling grids and checks how far the preference vectors drift and
// whether the placement decision survives — the knob that sets profiling
// cost in a real deployment.
func (s *Suite) AblationProfiling() (AblationProfilingResult, error) {
	var res AblationProfilingResult
	fullPlacement, _, err := cluster.Place(s.clusterConfig())
	if err != nil {
		return res, err
	}
	for _, stride := range []struct{ c, w int }{{1, 1}, {2, 2}, {3, 4}, {4, 5}} {
		mm := make(map[string]*utility.Model)
		var worstPref float64
		var sumR2 float64
		var samples int
		all := append(s.Catalog.LC(), s.Catalog.BE()...)
		for i, spec := range all {
			m, err := profiler.ProfileAndFit(profiler.Config{
				Spec: spec, Machine: s.Machine, CoreStep: stride.c, WayStep: stride.w,
				Seed: s.Seed + int64(i)*101,
			})
			if err != nil {
				return res, fmt.Errorf("stride %dx%d: %s: %w", stride.c, stride.w, spec.Name, err)
			}
			mm[spec.Name] = m
			sumR2 += m.PerfR2
			samples = m.N
			truth, _ := spec.PreferenceTruth()
			if d := math.Abs(m.Preference()[0] - truth); d > worstPref {
				worstPref = d
			}
		}
		mx, err := cluster.BuildMatrix(cluster.MatrixConfig{
			Machine: s.Machine, LC: s.Catalog.LC(), BE: s.Catalog.BE(), Models: mm,
		})
		if err != nil {
			return res, err
		}
		placement, _, err := mx.Solve("lp")
		if err != nil {
			return res, err
		}
		same := len(placement) == len(fullPlacement)
		for be, lc := range fullPlacement {
			if placement[be] != lc {
				same = false
			}
		}
		var ps []string
		for _, be := range sortedKeys(placement) {
			ps = append(ps, fmt.Sprintf("%s→%s", be, placement[be]))
		}
		res.Rows = append(res.Rows, ProfilingRow{
			Stride:      fmt.Sprintf("%d×%d", stride.c, stride.w),
			Samples:     samples,
			MeanPerfR2:  sumR2 / float64(len(all)),
			MaxPrefErr:  worstPref,
			SamePlace:   same,
			PlaceString: fmt.Sprint(ps),
		})
	}
	return res, nil
}

// Table renders the result.
func (r AblationProfilingResult) Table() Table {
	t := Table{
		Title:   "Ablation: profiling grid stride (profiling cost)",
		Caption: "Sparser grids fit from fewer samples; the placement should survive moderate sparsity.",
		Header:  []string{"stride", "samples/app", "mean perf R²", "worst preference error", "placement unchanged"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Stride, fmt.Sprint(row.Samples), f3(row.MeanPerfR2), f3(row.MaxPrefErr), fmt.Sprint(row.SamePlace),
		})
	}
	return t
}

// SharingRow is one sharing discipline's outcome for two co-runners.
type SharingRow struct {
	Discipline string
	TotalBEOps float64
	PerApp     map[string]float64
	CapOver    float64
}

// AblationSharingResult compares single-app, spatial, and temporal sharing
// of the spare resources (the Section V-G extension).
type AblationSharingResult struct {
	Rows []SharingRow
}

// AblationSharing gives a sphinx server two co-runners (graph and lstm)
// and compares: graph alone, spatial sharing (model-guided split), and
// temporal sharing (RR time-slicing) over the same 60 simulated seconds.
func (s *Suite) AblationSharing() (AblationSharingResult, error) {
	const dur = 60 * time.Second
	lc, err := s.spec("sphinx")
	if err != nil {
		return AblationSharingResult{}, err
	}
	lcModel, err := s.model("sphinx")
	if err != nil {
		return AblationSharingResult{}, err
	}
	graph, err := s.spec("graph")
	if err != nil {
		return AblationSharingResult{}, err
	}
	lstm, err := s.spec("lstm")
	if err != nil {
		return AblationSharingResult{}, err
	}

	build := func(extra []*workload.Spec, beModels bool) (*sim.Host, *servermgr.Manager, *sim.Engine, error) {
		trace, err := workload.NewConstantTrace(0.3)
		if err != nil {
			return nil, nil, nil, err
		}
		cfg := servermgr.Config{Model: lcModel, Policy: servermgr.PowerOptimized}
		if beModels {
			cfg.BEModels = s.Models
		}
		engine, err := sim.NewEngine(servermgr.CapPeriod)
		if err != nil {
			return nil, nil, nil, err
		}
		host, mgr, err := servermgr.Start(engine, sim.HostConfig{
			Name: "sharing", Machine: s.Machine, LC: lc, BE: graph, ExtraBE: extra, Trace: trace, Seed: s.Seed,
		}, cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		return host, mgr, engine, nil
	}

	var res AblationSharingResult

	// Single co-runner (the paper's main configuration).
	host, _, engine, err := build(nil, false)
	if err != nil {
		return res, err
	}
	if err := engine.Run(dur); err != nil {
		return res, err
	}
	m := host.Metrics()
	res.Rows = append(res.Rows, SharingRow{
		Discipline: "single (graph only)", TotalBEOps: m.BEOps, PerApp: m.BEOpsBy, CapOver: m.CapOverFrac,
	})

	// Spatial sharing: graph + lstm split the spare via their models.
	host, _, engine, err = build([]*workload.Spec{lstm}, true)
	if err != nil {
		return res, err
	}
	if err := engine.Run(dur); err != nil {
		return res, err
	}
	m = host.Metrics()
	res.Rows = append(res.Rows, SharingRow{
		Discipline: "spatial (graph + lstm)", TotalBEOps: m.BEOps, PerApp: m.BEOpsBy, CapOver: m.CapOverFrac,
	})

	// Temporal sharing: RR over two equal jobs sized so neither finishes.
	host, mgr, engine, err := build([]*workload.Spec{lstm}, false)
	if err != nil {
		return res, err
	}
	sched, err := timeshare.New(timeshare.Config{
		Host: host, Manager: mgr, Policy: timeshare.RR, Quantum: 5 * time.Second,
		Jobs: []timeshare.Job{{App: "graph", SizeOps: 1e9}, {App: "lstm", SizeOps: 1e9}},
	})
	if err != nil {
		return res, err
	}
	if err := sched.Attach(engine); err != nil {
		return res, err
	}
	if err := engine.Run(dur); err != nil {
		return res, err
	}
	m = host.Metrics()
	res.Rows = append(res.Rows, SharingRow{
		Discipline: "temporal (RR, 5s quanta)", TotalBEOps: m.BEOps, PerApp: m.BEOpsBy, CapOver: m.CapOverFrac,
	})
	return res, nil
}

// Table renders the result.
func (r AblationSharingResult) Table() Table {
	t := Table{
		Title:   "Ablation: multi-co-runner sharing disciplines (sphinx @ 30% load, 60s)",
		Caption: "Spatial sharing splits resources by the fitted models; temporal sharing time-slices.",
		Header:  []string{"discipline", "total BE ops", "per-app ops", "over-cap time"},
	}
	for _, row := range r.Rows {
		var per []string
		for _, app := range sortedFloatKeys(row.PerApp) {
			per = append(per, fmt.Sprintf("%s=%.0f", app, row.PerApp[app]))
		}
		t.Rows = append(t.Rows, []string{row.Discipline, f1(row.TotalBEOps), fmt.Sprint(per), pct(row.CapOver)})
	}
	return t
}

func sortedFloatKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
