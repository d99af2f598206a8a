// Package pocolo is a library reproduction of "Pocolo: Power Optimized
// Colocation in Power Constrained Environments" (IISWC 2020): a two-level
// resource manager for private clusters that are power-provisioned for a
// primary latency-critical application but harvest spare resources — and
// spare watts — for best-effort co-runners.
//
// The package is organized around three ideas from the paper:
//
//   - A Cobb-Douglas *indirect utility* model fitted per application
//     relates performance to direct resources (cores, LLC ways) under a
//     linear power budget. Its closed forms give the least-power
//     allocation for a load target and the per-watt preference vector
//     that ranks resources (Model).
//   - A server manager keeps the primary at ≥10% p99 slack on the
//     least-power allocation, hands all spare resources to the co-runner,
//     and power-caps the co-runner (DVFS first, duty-cycling second)
//     every 100 ms.
//   - A cluster manager estimates each (best-effort, server) pairing's
//     throughput from the fitted models and solves the placement with an
//     LP/Hungarian solver to maximize total cluster throughput.
//
// The hardware substrate (Xeon E5-2650 with RAPL power metering, CAT way
// partitioning, per-core DVFS) and the eight applications of the paper's
// evaluation are simulated; see DESIGN.md for the substitution table.
//
// Quick start:
//
//	sys, err := pocolo.NewSystem(42)
//	placement, predicted, err := sys.Place()
//	result, err := sys.Run(pocolo.POColo)
package pocolo

import (
	"errors"
	"io"
	"time"

	"pocolo/internal/budget"
	"pocolo/internal/cluster"
	"pocolo/internal/experiments"
	"pocolo/internal/machine"
	"pocolo/internal/online"
	"pocolo/internal/profiler"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/tco"
	"pocolo/internal/timeshare"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// MachineConfig describes a server platform (Table I).
	MachineConfig = machine.Config
	// Alloc is a resource grant: cores, LLC ways, frequency, duty cycle.
	Alloc = machine.Alloc
	// Server exposes the allocation knobs of one simulated machine.
	Server = machine.Server
	// Spec is a ground-truth application model.
	Spec = workload.Spec
	// Catalog holds the calibrated applications for a platform.
	Catalog = workload.Catalog
	// Trace drives a latency-critical application's offered load.
	Trace = workload.Trace
	// Host is one simulated server bound to its tenants and power meter.
	Host = sim.Host
	// LCPolicy selects the server manager's allocation strategy.
	LCPolicy = servermgr.LCPolicy
	// Model is a fitted Cobb-Douglas indirect utility model.
	Model = utility.Model
	// Sample is one profiling observation used for fitting.
	Sample = utility.Sample
	// Matrix is the cluster manager's BE×LC performance matrix.
	Matrix = cluster.Matrix
	// Result summarizes a cluster policy run.
	Result = cluster.Result
	// PairResult is one cell of the exhaustive placement study.
	PairResult = cluster.PairResult
	// HostMetrics summarizes one simulated server's run.
	HostMetrics = sim.Metrics
	// ManagerConfig assembles a server-level manager.
	ManagerConfig = servermgr.Config
	// Manager is the per-server two-loop controller.
	Manager = servermgr.Manager
	// Setup is the simulation setup System and Suite share: platform,
	// catalog, fitted models, seed and run settings.
	Setup = experiments.Setup
	// Suite regenerates the paper's tables and figures.
	Suite = experiments.Suite
	// TCOParams holds the Hamilton cost-model constants.
	TCOParams = tco.Params
	// TCOInput is one policy's measured operating point for TCO analysis.
	TCOInput = tco.Input
	// TCOBreakdown is an amortized monthly cost split.
	TCOBreakdown = tco.Breakdown
	// BatchJob is a finite best-effort job for time-shared execution.
	BatchJob = timeshare.Job
	// BatchCompletion records one finished best-effort job.
	BatchCompletion = timeshare.Completion
	// BatchPolicy is a time-sharing discipline (FCFS, SJF, RR).
	BatchPolicy = timeshare.Policy
	// BudgetPolicy selects how a cluster power budget is divided.
	BudgetPolicy = budget.Policy
	// BudgetConfig puts a cluster run under a flat or hierarchical power
	// budget; see cluster.BudgetConfig and internal/budget/tree.
	BudgetConfig = cluster.BudgetConfig
	// BudgetResult carries the installed shares and rebalance counters of
	// a budgeted cluster run.
	BudgetResult = cluster.BudgetResult
	// ShardSettings configures pod sharding of the assignment problem.
	ShardSettings = cluster.ShardSettings
	// FleetConfig scales the catalog to a synthetic hyperscale fleet.
	FleetConfig = cluster.FleetConfig
	// HyperscaleConfig drives a sharded fleet through churn rounds.
	HyperscaleConfig = cluster.HyperscaleConfig
	// HyperscaleResult summarizes a hyperscale scenario run.
	HyperscaleResult = cluster.HyperscaleResult
	// HyperscaleRound reports one churn round of a hyperscale run.
	HyperscaleRound = cluster.HyperscaleRound
	// DeltaStats counts delta-driven matrix work (computed vs memo-reused
	// cells).
	DeltaStats = cluster.DeltaStats
)

// ParseBudgetFlags assembles a BudgetConfig from the budget CLI flags
// shared by pocolo-sim and pocolo-experiments; nil when no budget was
// requested. A tree spec starting with '@' is read from the named file.
var ParseBudgetFlags = cluster.ParseBudgetFlags

// Cluster budget division policies.
const (
	// EqualSplit gives every server the same share of the cluster budget.
	EqualSplit = budget.EqualSplit
	// DemandProportional follows each server's smoothed power draw.
	DemandProportional = budget.DemandProportional
)

// Time-sharing disciplines for RunBatch (the paper's Section V-G
// extension).
const (
	// FCFS runs jobs to completion in submission order.
	FCFS = timeshare.FCFS
	// SJF runs jobs to completion in ascending size order.
	SJF = timeshare.SJF
	// RR cycles a fixed quantum over all incomplete jobs.
	RR = timeshare.RR
)

// HamiltonTCO returns the paper's TCO constants: 100k servers at $1450,
// $9/W power infrastructure, 7¢/kWh, PUE 1.1.
func HamiltonTCO() TCOParams { return tco.Hamilton() }

// Load trace constructors.

// DiurnalTrace models a day/night load swing between low and high (as
// fractions of peak) over one period.
func DiurnalTrace(low, high float64, period time.Duration) (Trace, error) {
	return workload.NewDiurnalTrace(low, high, period)
}

// ConstantTrace holds one load level forever.
func ConstantTrace(level float64) (Trace, error) {
	return workload.NewConstantTrace(level)
}

// StepTrace switches from before to after at time at, over a span.
func StepTrace(before, after float64, at, span time.Duration) (Trace, error) {
	return workload.NewStepTrace(before, after, at, span)
}

// UniformSweepTrace holds each of the paper's nine load levels (10%–90%)
// for dwell.
func UniformSweepTrace(dwell time.Duration) Trace {
	return workload.UniformSweep(dwell)
}

// TwoPeakTrace models a double-humped daily load (morning and evening
// peaks with a midday sag).
func TwoPeakTrace(low, mid, high float64, period time.Duration) (Trace, error) {
	return workload.NewTwoPeakTrace(low, mid, high, period)
}

// FlashCrowdTrace holds a baseline load with one sudden spike.
func FlashCrowdTrace(base, spike float64, at, spikeDur, span time.Duration) (Trace, error) {
	return workload.NewFlashCrowdTrace(base, spike, at, spikeDur, span)
}

// NoisyTrace perturbs an inner trace with seeded multiplicative jitter,
// re-sampled per interval.
func NoisyTrace(inner Trace, relStd float64, interval time.Duration, seed int64) (Trace, error) {
	return workload.NewNoisyTrace(inner, relStd, interval, seed)
}

// ReplayTraceCSV parses a two-column "seconds,load-fraction" CSV stream
// into a replayable trace with linear interpolation.
func ReplayTraceCSV(name string, r io.Reader) (Trace, error) {
	return workload.ParseCSVTrace(name, r)
}

// Cluster policies (the paper's Section V-D ablation).
const (
	// Random places co-runners randomly and manages servers power-unaware.
	Random = cluster.Random
	// POM keeps random placement but manages servers power-optimized.
	POM = cluster.POM
	// POColo adds utility-guided placement — the full system.
	POColo = cluster.POColo
)

// Server management policies.
const (
	// PowerUnaware walks the indifference curve without power preference.
	PowerUnaware = servermgr.PowerUnaware
	// PowerOptimized picks least-power feasible allocations.
	PowerOptimized = servermgr.PowerOptimized
)

// XeonE52650 returns the paper's experimental platform (Table I).
func XeonE52650() MachineConfig { return machine.XeonE52650() }

// DefaultWorkloads returns the eight applications of the paper's
// evaluation, calibrated for the given platform.
func DefaultWorkloads(cfg MachineConfig) (*Catalog, error) {
	return workload.Defaults(cfg)
}

// LoadCatalog reads a JSON application catalog (see ExportCatalog for the
// schema) and calibrates it against the platform — the hook for pointing
// Pocolo's simulation at a custom application mix.
func LoadCatalog(r io.Reader, cfg MachineConfig) (*Catalog, error) {
	return workload.LoadCatalog(r, cfg)
}

// ExportCatalog writes a catalog's calibration inputs as JSON so it can be
// saved, edited, and reloaded with LoadCatalog.
func ExportCatalog(w io.Writer, cat *Catalog) error {
	return workload.ExportCatalog(w, cat)
}

// FitModel fits the Cobb-Douglas indirect utility model to profiling
// samples over the named resources.
func FitModel(app string, resources []string, samples []Sample) (*Model, error) {
	return utility.Fit(app, resources, samples)
}

// Profile sweeps an application across the platform's allocation grid and
// fits its utility model (performance metric: max load at ≥10% p99 slack
// for latency-critical apps, saturated throughput for best-effort apps).
func Profile(spec *Spec, cfg MachineConfig, seed int64) (*Model, error) {
	return profiler.ProfileAndFit(profiler.Config{Spec: spec, Machine: cfg, Seed: seed})
}

// SaveModels writes a set of fitted models as JSON — the "historical
// knowledge" form the paper says applications can provide their parameters
// in. Profile once, ship the file to every manager.
func SaveModels(w io.Writer, models map[string]*Model) error {
	return utility.SaveModels(w, models)
}

// LoadModels reads a model set written by SaveModels, validating every
// entry.
func LoadModels(r io.Reader) (map[string]*Model, error) {
	return utility.LoadModels(r)
}

// NewSystemFromModels builds a System from previously fitted models
// instead of re-profiling. The models must cover all eight applications of
// the catalog.
func NewSystemFromModels(cfg MachineConfig, models map[string]*Model, seed int64) (*System, error) {
	setup, err := experiments.SetupFromModels(cfg, models, seed)
	if err != nil {
		return nil, err
	}
	return &System{Setup: setup}, nil
}

// System bundles the full experimental setup: platform, calibrated
// workloads, fitted models for all eight applications, and the settings
// every run takes (see Setup; Dwell defaults to 5 s).
//
// With Trace set, the kinds each call labels its timelines with are place
// (Place), run (Run), placement (RunPlacement), replicated
// (RunReplicated), pair (RunPair), hyperscale (RunHyperscale), server
// (SimulateServer), batch (RunBatch), adaptive (SimulateAdaptiveServer)
// and budgeted (SimulateBudgetedCluster): e.g. run/img-dnn, run/cluster.
// RunReplicated implements no Budget and fails when one is set;
// SimulateBudgetedCluster sizes its own flat budget and ignores Budget.
type System struct {
	Setup
}

// NewSystem profiles and fits every application on the Table I platform.
func NewSystem(seed int64) (*System, error) {
	return NewSystemOn(machine.XeonE52650(), seed)
}

// NewSystemOn builds a System for an arbitrary platform configuration.
func NewSystemOn(cfg MachineConfig, seed int64) (*System, error) {
	setup, err := experiments.NewSetup(cfg, seed)
	if err != nil {
		return nil, err
	}
	return &System{Setup: setup}, nil
}

// Matrix builds the BE×LC performance matrix from the fitted models.
func (s *System) Matrix() (*Matrix, error) {
	return cluster.BuildMatrix(s.MatrixConfig())
}

// Place computes the POColo placement (LP solver over the performance
// matrix), returning the BE→LC assignment and its predicted total value.
func (s *System) Place() (map[string]string, float64, error) {
	return cluster.Place(s.ClusterConfig(s.Trace.Label("place")))
}

// Run evaluates the cluster under one of the paper's policies across the
// uniform 10–90% load sweep.
func (s *System) Run(policy cluster.Policy) (Result, error) {
	return cluster.Run(s.ClusterConfig(s.Trace.Label("run")), policy)
}

// RunPlacement evaluates an explicit placement with the given server
// management policy.
func (s *System) RunPlacement(placement map[string]string, mgmt servermgr.LCPolicy) (Result, error) {
	return cluster.RunPlacement(s.ClusterConfig(s.Trace.Label("placement")), placement, mgmt)
}

// RunHyperscale scales the system's catalog to a synthetic fleet of
// cfg.Fleet.Hosts servers and drives it through churn rounds on the
// sharded incremental assignment path (see cluster.RunHyperscale).
// Unset fleet fields default from the system: machine, catalog classes,
// models, seed, and worker pool. With tracing enabled on the system the
// run records per-pod solve summaries and rebalance migrations on the
// hyperscale/cluster timeline (see System).
func (s *System) RunHyperscale(cfg HyperscaleConfig) (HyperscaleResult, error) {
	if cfg.Fleet.Machine == (MachineConfig{}) {
		cfg.Fleet.Machine = s.Machine
	}
	if cfg.Fleet.LCClasses == nil {
		cfg.Fleet.LCClasses = s.Catalog.LC()
	}
	if cfg.Fleet.BEClasses == nil {
		cfg.Fleet.BEClasses = s.Catalog.BE()
	}
	if cfg.Fleet.Models == nil {
		cfg.Fleet.Models = s.Models
	}
	if cfg.Fleet.Seed == 0 {
		cfg.Fleet.Seed = s.Seed
	}
	if cfg.Fleet.Parallel == 0 {
		cfg.Fleet.Parallel = s.Parallel
	}
	if cfg.Trace == nil && s.Trace != nil {
		cfg.Trace = s.Trace.Tracer(s.Trace.Label("hyperscale") + "cluster")
	}
	return cluster.RunHyperscale(cfg)
}

// RunReplicated evaluates a datacenter-scale variant: each LC cluster runs
// `replicas` servers and each BE application submits `replicas` instances;
// the placement is solved exactly, one pod per replica cluster, and the
// whole fleet is simulated. Host names take the form "<lc>#<i>". A set
// Budget is an error.
func (s *System) RunReplicated(replicas int, mgmt LCPolicy) (Result, error) {
	return cluster.RunReplicated(s.ClusterConfig(s.Trace.Label("replicated")), replicas, mgmt)
}

// RunPair evaluates a single (latency-critical, best-effort) pairing
// across the load sweep — the building block of the paper's exhaustive
// placement comparison.
func (s *System) RunPair(lcName, beName string) (PairResult, error) {
	lc, err := s.Catalog.ByName(lcName)
	if err != nil {
		return PairResult{}, err
	}
	be, err := s.Catalog.ByName(beName)
	if err != nil {
		return PairResult{}, err
	}
	return cluster.RunPair(s.ClusterConfig(s.Trace.Label("pair")), lc, be)
}

// SimulateServer runs one managed server for dur: lcName as the primary
// driven by trace, beName (optional, "" for none) harvesting the spare
// resources, with the given management policy and the 100 ms power capper
// active against the primary's provisioned capacity. It returns the host
// (whose telemetry series remain readable) and the run metrics.
func (s *System) SimulateServer(lcName, beName string, trace Trace, mgmt LCPolicy, dur time.Duration) (*Host, HostMetrics, error) {
	lc, err := s.Catalog.ByName(lcName)
	if err != nil {
		return nil, HostMetrics{}, err
	}
	var be *Spec
	if beName != "" {
		if be, err = s.Catalog.ByName(beName); err != nil {
			return nil, HostMetrics{}, err
		}
	}
	model, err := s.Model(lcName)
	if err != nil {
		return nil, HostMetrics{}, err
	}
	engine, err := sim.NewEngine(servermgr.CapPeriod)
	if err != nil {
		return nil, HostMetrics{}, err
	}
	host, _, err := servermgr.Start(engine, sim.HostConfig{
		Name:    lcName,
		Machine: s.Machine,
		LC:      lc,
		BE:      be,
		Trace:   trace,
		Seed:    s.Seed,
	}, servermgr.Config{Model: model, Policy: mgmt, Seed: s.Seed, Tracer: s.Trace.Tracer(s.Trace.Label("server") + lcName)})
	if err != nil {
		return nil, HostMetrics{}, err
	}
	if err := engine.Run(dur); err != nil {
		return nil, HostMetrics{}, err
	}
	return host, host.Metrics(), nil
}

// BatchResult summarizes a time-shared best-effort batch run.
type BatchResult struct {
	// Done reports whether every job completed within the simulated span.
	Done bool
	// Completions lists the finished jobs in completion order.
	Completions []BatchCompletion
	// Makespan is the time to the last completion (zero unless Done).
	Makespan time.Duration
	// MeanFlowTime is the average completion time of finished jobs.
	MeanFlowTime time.Duration
	// Progress maps each job to its completed operations.
	Progress map[string]float64
	// Host carries the server-level metrics of the run.
	Host HostMetrics
}

// RunBatch simulates one managed, power-capped server running lcName under
// trace while time-sharing the given finite best-effort jobs with the
// chosen discipline (the paper's Section V-G extension). Each job's App
// must be a distinct application from the catalog. The simulation stops at
// maxSim even if jobs remain.
func (s *System) RunBatch(lcName string, trace Trace, policy BatchPolicy, quantum time.Duration, jobs []BatchJob, maxSim time.Duration) (BatchResult, error) {
	lc, err := s.Catalog.ByName(lcName)
	if err != nil {
		return BatchResult{}, err
	}
	model, err := s.Model(lcName)
	if err != nil {
		return BatchResult{}, err
	}
	var bes []*Spec
	for _, j := range jobs {
		spec, err := s.Catalog.ByName(j.App)
		if err != nil {
			return BatchResult{}, err
		}
		bes = append(bes, spec)
	}
	if len(bes) == 0 {
		return BatchResult{}, errors.New("pocolo: batch needs at least one job")
	}
	engine, err := sim.NewEngine(servermgr.CapPeriod)
	if err != nil {
		return BatchResult{}, err
	}
	host, mgr, err := servermgr.Start(engine, sim.HostConfig{
		Name:    lcName,
		Machine: s.Machine,
		LC:      lc,
		BE:      bes[0],
		ExtraBE: bes[1:],
		Trace:   trace,
		Seed:    s.Seed,
	}, servermgr.Config{Model: model, Policy: servermgr.PowerOptimized, Seed: s.Seed, Tracer: s.Trace.Tracer(s.Trace.Label("batch") + lcName)})
	if err != nil {
		return BatchResult{}, err
	}
	sched, err := timeshare.New(timeshare.Config{
		Host: host, Manager: mgr, Policy: policy, Quantum: quantum, Jobs: jobs,
	})
	if err != nil {
		return BatchResult{}, err
	}
	if err := sched.Attach(engine); err != nil {
		return BatchResult{}, err
	}
	if maxSim <= 0 {
		return BatchResult{}, errors.New("pocolo: batch needs a positive simulation budget")
	}
	step := time.Second
	for elapsed := time.Duration(0); elapsed < maxSim && !sched.Done(); elapsed += step {
		if err := engine.Run(step); err != nil {
			return BatchResult{}, err
		}
	}
	return BatchResult{
		Done:         sched.Done(),
		Completions:  sched.Completions(),
		Makespan:     sched.Makespan(),
		MeanFlowTime: sched.MeanFlowTime(),
		Progress:     sched.Progress(),
		Host:         host.Metrics(),
	}, nil
}

// AdaptiveResult summarizes an online-adaptation run.
type AdaptiveResult struct {
	// Host carries the server metrics of the run.
	Host HostMetrics
	// Observations and Refits count the adapter's activity.
	Observations int
	Refits       int
	// FinalPreference is the managed model's cores-vs-ways preference at
	// the end of the run.
	FinalPreference []float64
}

// SimulateAdaptiveServer runs lcName under trace managed with a model
// borrowed from another application (borrowedFrom) — a cold start with
// "historical knowledge" from the wrong workload — while the online
// adapter collects runtime telemetry, refits the Cobb-Douglas model, and
// swaps it into the manager (Section IV-A's "sampled online during
// execution" path).
func (s *System) SimulateAdaptiveServer(lcName, borrowedFrom string, trace Trace, dur time.Duration) (AdaptiveResult, error) {
	lc, err := s.Catalog.ByName(lcName)
	if err != nil {
		return AdaptiveResult{}, err
	}
	borrowed, err := s.Model(borrowedFrom)
	if err != nil {
		return AdaptiveResult{}, err
	}
	clone := *borrowed
	clone.Alpha = append([]float64(nil), borrowed.Alpha...)
	clone.P = append([]float64(nil), borrowed.P...)
	clone.App = lcName
	engine, err := sim.NewEngine(servermgr.CapPeriod)
	if err != nil {
		return AdaptiveResult{}, err
	}
	host, mgr, err := servermgr.Start(engine, sim.HostConfig{
		Name: lcName, Machine: s.Machine, LC: lc, Trace: trace, Seed: s.Seed,
	}, servermgr.Config{Model: &clone, Policy: servermgr.PowerOptimized, Seed: s.Seed, Tracer: s.Trace.Tracer(s.Trace.Label("adaptive") + lcName)})
	if err != nil {
		return AdaptiveResult{}, err
	}
	adapter, err := online.NewAdapter(online.AdapterConfig{Host: host, Manager: mgr})
	if err != nil {
		return AdaptiveResult{}, err
	}
	if err := adapter.Attach(engine); err != nil {
		return AdaptiveResult{}, err
	}
	if err := engine.Run(dur); err != nil {
		return AdaptiveResult{}, err
	}
	obs, _, refits, _ := adapter.Stats()
	return AdaptiveResult{
		Host:            host.Metrics(),
		Observations:    obs,
		Refits:          refits,
		FinalPreference: mgr.Model().Preference(),
	}, nil
}

// BudgetedResult summarizes a cluster run under an aggregate power budget.
type BudgetedResult struct {
	// BudgetW is the enforced aggregate budget.
	BudgetW float64
	// Hosts holds per-server metrics keyed by LC app name.
	Hosts map[string]HostMetrics
	// Shares holds the final per-server budget division keyed by LC app
	// name.
	Shares map[string]float64
	// TotalBEOps sums the best-effort work completed.
	TotalBEOps float64
	// MeanClusterW is the summed mean power across servers.
	MeanClusterW float64
}

// SimulateBudgetedCluster runs the four LC servers at the given constant
// load fractions (keyed by LC app name) with the given co-runner placement
// (BE name → LC name, nil for the POColo placement; BE apps it leaves out
// do not run), under an aggregate power budget of budgetFrac × Σ
// provisioned capacities divided by the chosen policy. This is the
// Dynamo-style hierarchical capping layer on top of Pocolo's per-server
// managers. It is cluster.RunBudgeted under a flat budget, so it lays out
// hosts and seeds as every cluster run does and honours Invariants and
// Trace.
func (s *System) SimulateBudgetedCluster(loads map[string]float64, placement map[string]string, budgetFrac float64, policy BudgetPolicy, dur time.Duration) (BudgetedResult, error) {
	if budgetFrac <= 0 || budgetFrac > 1 {
		return BudgetedResult{}, errors.New("pocolo: budget fraction outside (0, 1]")
	}
	cfg := s.ClusterConfig(s.Trace.Label("budgeted"))
	if placement == nil {
		var err error
		if placement, _, err = cluster.Place(cfg); err != nil {
			return BudgetedResult{}, err
		}
	}
	var provisionedW float64
	for _, lc := range cfg.LC {
		provisionedW += lc.ProvisionedPowerW
	}
	cfg.Budget = &BudgetConfig{TotalW: budgetFrac * provisionedW, Policy: policy}
	run, err := cluster.RunBudgeted(cfg, placement, loads, dur)
	if err != nil {
		return BudgetedResult{}, err
	}
	res := BudgetedResult{
		BudgetW:    cfg.Budget.TotalW,
		Hosts:      run.Hosts,
		Shares:     run.Budget.Shares,
		TotalBEOps: run.TotalBEOps,
	}
	for _, lc := range cfg.LC {
		res.MeanClusterW += run.Hosts[lc.Name].MeanPowerW
	}
	return res, nil
}

// Experiments returns a Suite that regenerates the paper's tables and
// figures on a copy of this system's setup: its machine, catalog, models,
// seed and run settings, budget included.
func (s *System) Experiments() (*Suite, error) {
	return &Suite{Setup: s.Setup}, nil
}
