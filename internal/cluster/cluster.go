package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"pocolo/internal/invariant"
	"pocolo/internal/machine"
	"pocolo/internal/parallel"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// Policy is a full cluster policy: a placement strategy plus a server
// management strategy, matching the paper's Section V-D ablation.
type Policy int

const (
	// Random places BE apps on random LC servers and manages each server
	// with the power-unaware feedback controller — the paper's baseline.
	Random Policy = iota
	// POM keeps the random placement but manages each server with the
	// power-optimized (utility-model-guided) controller.
	POM
	// POColo uses the performance-matrix placement (LP solver) and the
	// power-optimized controller — the full system.
	POColo
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Random:
		return "random"
	case POM:
		return "pom"
	case POColo:
		return "pocolo"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy is the inverse of Policy.String, for flag and config
// parsing.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "random":
		return Random, nil
	case "pom":
		return POM, nil
	case "pocolo":
		return POColo, nil
	default:
		return 0, fmt.Errorf("cluster: unknown policy %q (want random, pom, or pocolo)", s)
	}
}

// Config assembles a cluster evaluation run.
type Config struct {
	// Machine is the per-server platform.
	Machine machine.Config
	// LC holds the latency-critical apps, one server each; required.
	LC []*workload.Spec
	// BE holds the best-effort apps to place; len(BE) ≤ len(LC).
	BE []*workload.Spec
	// Models holds fitted utility models for every application; required.
	Models map[string]*utility.Model
	// Dwell is the time each LC load level is held (default 5 s); every
	// server sweeps the uniform 10–90% range, the paper's evaluation
	// distribution.
	Dwell time.Duration
	// Seed drives placement randomness and per-host noise.
	Seed int64
	// TargetSlack overrides the server managers' latency slack guard
	// (default: the manager's own 0.10 default). Used by the slack
	// sensitivity ablation.
	TargetSlack float64
	// Parallel bounds the worker pool the run fans independent simulation
	// units (hosts, trials, load levels) through: 0 means GOMAXPROCS, 1
	// forces the sequential path. Results are identical at every setting —
	// every unit has its own seeded noise streams and aggregation order is
	// fixed — so Parallel trades only wall-clock time.
	Parallel int
	// Invariants binds the invariant harness to every managed host's
	// per-tick observe path: resource conservation, power-cap compliance,
	// slack-recovery liveness, and physical sanity are asserted on every
	// tick, and any violation fails the run with an error. Checking does
	// not perturb results — observers run after the tick's state is final.
	Invariants bool
	// Trace, when non-nil, collects decision events from every simulated
	// host and the placement pipeline. Each host records into its own
	// child tracer (keyed TraceLabel + host name) so parallel execution
	// stays deterministic; Trace.Events() merges them into one timeline.
	// Traced runs bypass the process-wide sweep memo — a memoized result
	// would replay no decisions — so tracing trades the memo's speedup
	// for a complete timeline.
	Trace *trace.Set
	// TraceLabel prefixes every trace key of the run (the host names,
	// "cluster" and "budget"), e.g. "run/" or "trial3/", so repeated
	// simulations of the same host land on distinct timelines.
	TraceLabel string
	// Budget, when non-nil, puts the run under a cluster power budget —
	// flat or hierarchical (see BudgetConfig). Budgeted runs step every
	// host on one shared engine and always bypass the sweep memo.
	Budget *BudgetConfig
}

func (c *Config) defaults() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if len(c.LC) == 0 {
		return errors.New("cluster: no LC applications")
	}
	if len(c.BE) > len(c.LC) {
		return fmt.Errorf("cluster: %d BE apps but only %d servers", len(c.BE), len(c.LC))
	}
	for _, s := range append(append([]*workload.Spec{}, c.LC...), c.BE...) {
		if _, ok := c.Models[s.Name]; !ok {
			return fmt.Errorf("cluster: no fitted model for %s", s.Name)
		}
	}
	if c.Dwell == 0 {
		c.Dwell = 5 * time.Second
	}
	if c.Dwell <= 0 {
		return errors.New("cluster: dwell must be positive")
	}
	return nil
}

// Result summarizes one cluster run.
type Result struct {
	Policy Policy
	// Placement maps BE app name to the LC server (by LC app name) it ran
	// on.
	Placement map[string]string
	// Hosts holds per-server metrics keyed by LC app name.
	Hosts map[string]sim.Metrics
	// BENormThroughput is the cluster-mean BE throughput normalized to
	// each BE app's standalone full-machine peak (the paper's Fig. 12
	// metric, averaged over servers that had a co-runner).
	BENormThroughput float64
	// MeanPowerUtil is the cluster-mean power draw over provisioned
	// capacity (Fig. 13).
	MeanPowerUtil float64
	// TotalEnergyKWh is the summed energy use.
	TotalEnergyKWh float64
	// TotalBEOps is the summed best-effort operations completed.
	TotalBEOps float64
	// SLOViolFrac is the worst per-host SLO violation fraction.
	SLOViolFrac float64
	// Budget carries the installed shares and rebalance counters when the
	// run was budgeted (nil otherwise).
	Budget *BudgetResult
}

// PlaceRandom returns a uniformly random placement of the BE apps onto
// distinct LC servers.
func PlaceRandom(lc, be []*workload.Spec, seed int64) map[string]string {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(lc))
	placement := make(map[string]string, len(be))
	for i, b := range be {
		placement[b.Name] = lc[perm[i]].Name
	}
	return placement
}

// Place computes the POColo placement: build the performance matrix from
// the fitted models and solve it with the LP solver.
func Place(cfg Config) (map[string]string, float64, error) {
	if err := cfg.defaults(); err != nil {
		return nil, 0, err
	}
	tr := cfg.Trace.Tracer(cfg.TraceLabel + "cluster")
	mcfg := MatrixConfig{
		Machine:  cfg.Machine,
		LC:       cfg.LC,
		BE:       cfg.BE,
		Models:   cfg.Models,
		Parallel: cfg.Parallel,
		Trace:    tr,
	}
	mx, err := BuildMatrix(mcfg)
	if err != nil {
		return nil, 0, err
	}
	placement, total, err := mx.SolveTraced("lp", tr)
	if err != nil {
		return nil, 0, err
	}
	recordPlacement(tr, placement, "lp solve")
	return placement, total, nil
}

// recordPlacement records the chosen placement in a deterministic
// (sorted) order.
func recordPlacement(tr *trace.Tracer, placement map[string]string, reason string) {
	bes := make([]string, 0, len(placement))
	for be := range placement {
		bes = append(bes, be)
	}
	sort.Strings(bes)
	for _, be := range bes {
		tr.Placement(simEpoch(), trace.Placement{BE: be, Node: placement[be], Reason: reason})
	}
}

// simEpoch is the engine's time origin; cluster-level events (placement,
// solve) happen "before" simulated time starts, so they are stamped at
// the epoch to keep seeded traces deterministic.
func simEpoch() time.Time { return time.Unix(0, 0).UTC() }

// RunPlacement simulates the cluster under an explicit placement with the
// given server-level management policy, every server sweeping the uniform
// 10–90% load range.
//
// Hosts are fully independent — each gets its own machine, server manager,
// and seeded noise streams — so every host+manager pair runs on its own
// single-host engine in a bounded worker pool (cfg.Parallel) and the
// per-host metrics are aggregated in fixed LC order afterwards. The result
// is bit-identical to stepping all hosts on one sequential engine.
// Finished runs are memoized process-wide (see cache.go). With cfg.Budget
// set, the same servers run instead through the budgeted loop RunBudgeted
// uses: one shared engine, no memo, and Result.Budget filled in.
func RunPlacement(cfg Config, placement map[string]string, mgmt servermgr.LCPolicy) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	servers, err := cfg.sweepServers(cfg.LC, cfg.BE, placement, mgmt)
	if err != nil {
		return Result{}, err
	}
	// Budgeted runs need all hosts in lockstep on one engine and never
	// touch the memo — the budgeter's installed caps depend on the whole
	// cluster's demand history, which a per-host cache key cannot capture.
	if cfg.Budget != nil {
		return runBudgeted(cfg, placement, servers, workload.UniformSweep(cfg.Dwell).Duration())
	}

	run := func() (Result, error) {
		metrics, err := runManagedHosts(cfg, servers, workload.UniformSweep(cfg.Dwell).Duration())
		if err != nil {
			return Result{}, err
		}
		return summarize(placement, servers, metrics), nil
	}
	// Traced runs bypass the memo in both directions: a cache hit would
	// replay no decisions, and a traced result must not poison the cache
	// for untraced callers expecting the speedup.
	if cfg.Trace != nil {
		return run()
	}
	return memoRun(placementRuns, placementKey(&cfg, placement, mgmt), copyResult, run)
}

// server is one managed server of a cluster run: its host, and its
// manager's policy and seed. Config.start supplies the rest.
type server struct {
	host   sim.HostConfig
	policy servermgr.LCPolicy
	seed   int64
}

// start brings s up on e through servermgr.Start, on the run's machine,
// with the primary's fitted model, the run's slack guard, and the host's
// own child tracer.
func (cfg *Config) start(e *sim.Engine, s server) (*sim.Host, *servermgr.Manager, error) {
	hc := s.host
	hc.Machine = cfg.Machine
	return servermgr.Start(e, hc, servermgr.Config{
		Model:       cfg.Models[hc.LC.Name],
		Policy:      s.policy,
		TargetSlack: cfg.TargetSlack,
		Seed:        s.seed,
		Tracer:      cfg.Trace.Tracer(cfg.TraceLabel + hc.Name),
	})
}

// sweepServers lays out a load-sweep run with one server per entry of lc,
// named after it, and inverts placement (BE app name → server name) to
// find each server's co-runner. Server j runs the uniform sweep with the
// noise and manager seeds of index j. lc and be are cfg.LC and cfg.BE, or
// RunReplicated's renamed instances of them; a server runs the base specs
// (entry j of lc instances cfg.LC[j%len(cfg.LC)], and likewise for be). A
// BE app the placement misses, a BE app placed on a name that is not a
// server, and two BE apps on one server are errors.
func (cfg *Config) sweepServers(lc, be []*workload.Spec, placement map[string]string, mgmt servermgr.LCPolicy) ([]server, error) {
	index := make(map[string]int, len(lc))
	for j, s := range lc {
		index[s.Name] = j
	}
	coRunner := make([]*workload.Spec, len(lc))
	for k, b := range be {
		name, ok := placement[b.Name]
		if !ok {
			return nil, fmt.Errorf("cluster: placement misses BE app %s", b.Name)
		}
		j, ok := index[name]
		if !ok {
			return nil, fmt.Errorf("cluster: BE app %s placed on %s, which is not an LC server", b.Name, name)
		}
		if coRunner[j] != nil {
			return nil, fmt.Errorf("cluster: two BE apps placed on %s", name)
		}
		coRunner[j] = cfg.BE[k%len(cfg.BE)]
	}
	hint := seriesHint(workload.UniformSweep(cfg.Dwell).Duration())
	servers := make([]server, len(lc))
	for j, s := range lc {
		servers[j] = server{
			host: sim.HostConfig{
				Name:       s.Name,
				LC:         cfg.LC[j%len(cfg.LC)],
				BE:         coRunner[j],
				Trace:      workload.UniformSweep(cfg.Dwell),
				Seed:       cfg.Seed + int64(j)*977,
				SeriesHint: hint,
			},
			policy: mgmt,
			seed:   cfg.Seed + int64(j)*389,
		}
	}
	return servers, nil
}

// runManagedHosts simulates each server under its manager on a private
// single-host engine for duration, fanned through the worker pool, and
// returns their metrics in server order. Servers share nothing, so each
// result is bit-identical to stepping the server beside the others on one
// engine.
func runManagedHosts(cfg Config, servers []server, duration time.Duration) ([]sim.Metrics, error) {
	metrics := make([]sim.Metrics, len(servers))
	err := parallel.ForEach(len(servers), cfg.Parallel, func(j int) error {
		engine, err := sim.NewEngine(servermgr.CapPeriod)
		if err != nil {
			return err
		}
		host, mgr, err := cfg.start(engine, servers[j])
		if err != nil {
			return err
		}
		harness, err := cfg.watch(engine, []*sim.Host{host}, []*servermgr.Manager{mgr})
		if err != nil {
			return err
		}
		if err := engine.Run(duration); err != nil {
			return err
		}
		if harness != nil {
			if err := harness.Err(); err != nil {
				return fmt.Errorf("cluster: host %s: %w", host.Name(), err)
			}
		}
		metrics[j] = host.Metrics()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return metrics, nil
}

// watch binds a fresh invariant harness to e over the hosts and their
// managers when the run checks invariants. It returns nil when the run
// does not.
func (cfg *Config) watch(e *sim.Engine, hosts []*sim.Host, mgrs []*servermgr.Manager) (*invariant.Harness, error) {
	if !cfg.Invariants {
		return nil, nil
	}
	h := invariant.NewHarness()
	for i, host := range hosts {
		if err := h.Watch(host, mgrs[i]); err != nil {
			return nil, err
		}
	}
	return h, h.Bind(e)
}

// summarize folds the servers' metrics, in server order, into a Result:
// per-host metrics keyed by host name, the summed energy and BE work, the
// mean power utilization, the worst SLO violation, and the mean normalized
// BE throughput over the servers with a co-runner.
func summarize(placement map[string]string, servers []server, metrics []sim.Metrics) Result {
	res := Result{
		Placement: placement,
		Hosts:     make(map[string]sim.Metrics, len(servers)),
	}
	var normSum float64
	var normCount int
	var utilSum float64
	for j, m := range metrics {
		res.Hosts[servers[j].host.Name] = m
		res.TotalEnergyKWh += m.EnergyKWh
		res.TotalBEOps += m.BEOps
		utilSum += m.PowerUtil
		if m.SLOViolFrac > res.SLOViolFrac {
			res.SLOViolFrac = m.SLOViolFrac
		}
		if be := servers[j].host.BE; be != nil {
			normSum += m.BEMeanThr / be.PeakLoad
			normCount++
		}
	}
	res.MeanPowerUtil = utilSum / float64(len(metrics))
	if normCount > 0 {
		res.BENormThroughput = normSum / float64(normCount)
	}
	return res
}

// seriesHint sizes the per-host telemetry series for a run of the given
// length so the hot path appends without reallocating.
func seriesHint(duration time.Duration) int {
	return int(duration/servermgr.CapPeriod) + 2
}

// Run evaluates the cluster under one of the paper's three policies. For
// Random and POM the placement is the expectation over sampled random
// permutations (RandomTrials of them, derived from Seed); for POColo it is
// the LP placement.
func Run(cfg Config, policy Policy) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	switch policy {
	case POColo:
		placement, _, err := Place(cfg)
		if err != nil {
			return Result{}, err
		}
		res, err := RunPlacement(cfg, placement, servermgr.PowerOptimized)
		res.Policy = POColo
		return res, err
	case Random, POM:
		mgmt := servermgr.PowerUnaware
		if policy == POM {
			mgmt = servermgr.PowerOptimized
		}
		res, err := runRandomExpectation(cfg, mgmt)
		if err != nil {
			return Result{}, err
		}
		res.Policy = policy
		return res, nil
	default:
		return Result{}, fmt.Errorf("cluster: unknown policy %v", policy)
	}
}

// RandomTrials is the number of random placements averaged for the Random
// and POM policies.
const RandomTrials = 6

// runRandomExpectation averages cluster metrics over sampled random
// placements. The trials are independent (each has its own derived seed),
// so they run concurrently through the worker pool; aggregation stays in
// trial order, keeping the average bit-identical to the sequential loop.
func runRandomExpectation(cfg Config, mgmt servermgr.LCPolicy) (Result, error) {
	trials := make([]Result, RandomTrials)
	err := parallel.ForEach(RandomTrials, cfg.Parallel, func(trial int) error {
		placement := PlaceRandom(cfg.LC, cfg.BE, cfg.Seed+int64(trial)*31)
		trialCfg := cfg
		trialCfg.Seed = cfg.Seed + int64(trial)*7919
		if cfg.Trace != nil {
			// Each trial simulates the same hosts again; a per-trial label
			// keeps their timelines distinct in the shared trace set.
			trialCfg.TraceLabel = fmt.Sprintf("%strial%d/", cfg.TraceLabel, trial)
		}
		res, err := RunPlacement(trialCfg, placement, mgmt)
		if err != nil {
			return err
		}
		trials[trial] = res
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return aggregateTrials(trials), nil
}

// aggregateTrials averages per-trial cluster results in trial order.
// Scalar metrics and per-host gauges are arithmetic means; SLOViolFrac is
// the worst trial (the paper reports worst-case SLO compliance); the
// per-host ProvisionedCapW passes through unchanged; and averaged event
// counts round to nearest rather than truncate.
func aggregateTrials(trials []Result) Result {
	agg := Result{
		Hosts:     make(map[string]sim.Metrics),
		Placement: make(map[string]string),
	}
	hostAgg := make(map[string]sim.Metrics)
	for trial := 0; trial < len(trials); trial++ {
		res := trials[trial]
		agg.BENormThroughput += res.BENormThroughput
		agg.MeanPowerUtil += res.MeanPowerUtil
		agg.TotalEnergyKWh += res.TotalEnergyKWh
		agg.TotalBEOps += res.TotalBEOps
		if res.SLOViolFrac > agg.SLOViolFrac {
			agg.SLOViolFrac = res.SLOViolFrac
		}
		for name, m := range res.Hosts {
			acc := hostAgg[name]
			acc.Host = name
			acc.BEOps += m.BEOps
			acc.BEMeanThr += m.BEMeanThr
			acc.LCOps += m.LCOps
			acc.MeanPowerW += m.MeanPowerW
			acc.PowerUtil += m.PowerUtil
			acc.EnergyKWh += m.EnergyKWh
			acc.CapOverFrac += m.CapOverFrac
			acc.CapEvents += m.CapEvents
			acc.SLOViolFrac += m.SLOViolFrac
			acc.MeanSlack += m.MeanSlack
			acc.DurationSec += m.DurationSec
			acc.ProvisionedCapW = m.ProvisionedCapW
			hostAgg[name] = acc
		}
	}
	n := float64(len(trials))
	agg.BENormThroughput /= n
	agg.MeanPowerUtil /= n
	agg.TotalEnergyKWh /= n
	agg.TotalBEOps /= n
	for name, m := range hostAgg {
		m.BEOps /= n
		m.BEMeanThr /= n
		m.LCOps /= n
		m.MeanPowerW /= n
		m.PowerUtil /= n
		m.EnergyKWh /= n
		m.CapOverFrac /= n
		m.SLOViolFrac /= n
		m.MeanSlack /= n
		m.DurationSec /= n
		// Round the averaged count to nearest: truncation would report one
		// excursion as zero whenever fewer than half the trials saw it.
		m.CapEvents = int(math.Round(float64(m.CapEvents) / n))
		agg.Hosts[name] = m
	}
	return agg
}

// PairResult is one cell of the exhaustive 4×4 placement study (Fig. 14):
// total normalized server throughput (LC goodput fraction plus BE
// throughput fraction) per load level for one (LC, BE) pairing.
type PairResult struct {
	LC, BE string
	// Loads holds the swept LC load fractions.
	Loads []float64
	// TotalNorm[i] is LC goodput/peak + BE throughput/peak at Loads[i].
	TotalNorm []float64
	// Mean is the average of TotalNorm.
	Mean float64
}

// RunPair simulates a single server hosting the LC app with the BE
// co-runner across the load sweep under power-optimized management and
// reports the combined normalized throughput per load level.
//
// The load levels are independent single-host runs (seeds derive from the
// load fraction, not the sweep order), so they run concurrently through
// the worker pool and the per-level results land at their load's index.
// Finished sweeps are memoized process-wide, so the sixteen sweeps behind
// Fig. 14 are simulated once and shared across figure regenerations.
func RunPair(cfg Config, lc, be *workload.Spec) (PairResult, error) {
	if err := cfg.defaults(); err != nil {
		return PairResult{}, err
	}
	// Traced sweeps bypass the memo in both directions, as in RunPlacement.
	if cfg.Trace != nil {
		return runPair(cfg, lc, be)
	}
	return memoRun(pairRuns, pairKey(&cfg, lc, be), copyPairResult, func() (PairResult, error) { return runPair(cfg, lc, be) })
}

// runPair lays out one server per load level and simulates the sweep.
func runPair(cfg Config, lc, be *workload.Spec) (PairResult, error) {
	loads := DefaultLoadRange()
	servers := make([]server, len(loads))
	for i, frac := range loads {
		loadTrace, err := workload.NewConstantTrace(frac)
		if err != nil {
			return PairResult{}, err
		}
		servers[i] = server{
			host: sim.HostConfig{
				Name:       fmt.Sprintf("%s+%s@%.0f", lc.Name, be.Name, frac*100),
				LC:         lc,
				BE:         be,
				Trace:      loadTrace,
				Seed:       cfg.Seed + int64(frac*1000),
				SeriesHint: seriesHint(cfg.Dwell),
			},
			policy: servermgr.PowerOptimized,
		}
	}
	metrics, err := runManagedHosts(cfg, servers, cfg.Dwell)
	if err != nil {
		return PairResult{}, err
	}
	pr := PairResult{LC: lc.Name, BE: be.Name, Loads: loads, TotalNorm: make([]float64, len(loads))}
	for i, m := range metrics {
		pr.TotalNorm[i] = m.LCOps/(lc.PeakLoad*m.DurationSec) + m.BEMeanThr/be.PeakLoad
		pr.Mean += pr.TotalNorm[i]
	}
	pr.Mean /= float64(len(loads))
	return pr, nil
}

// SortedNames returns the map keys in sorted order (test/report helper).
func SortedNames(m map[string]sim.Metrics) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
