package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"pocolo/internal/budget/tree"
	"pocolo/internal/machine"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// FleetConfig scales the application catalog to a synthetic fleet: Hosts
// LC server instances and Jobs BE job instances drawn round-robin from a
// few capacity classes, with per-host provisioned-cap jitter. Instances
// of one class share a fitted model, so a fleet of tens of thousands of
// hosts presents only (classes × distinct quantized caps) distinct
// matrix cells to the delta-cell memo.
type FleetConfig struct {
	// Machine is the per-server platform.
	Machine machine.Config
	// LCClasses and BEClasses are the capacity classes instances cycle
	// through; required.
	LCClasses []*workload.Spec
	BEClasses []*workload.Spec
	// Models holds fitted models for every class; required.
	Models map[string]*utility.Model
	// Hosts and Jobs size the fleet; Jobs ≤ Hosts.
	Hosts, Jobs int
	// Seed drives cap jitter and churn selection.
	Seed int64
	// CapJitterFrac is the relative spread of per-host provisioned caps
	// around the class cap (default 0.08). Jittered caps are quantized to
	// whole watts so the distinct column-fingerprint count stays bounded
	// and the delta-cell memo keeps collapsing instances.
	CapJitterFrac float64
	// Shard configures the pod decomposition (zero value = DefaultPodSize
	// pods).
	Shard ShardSettings
	// Parallel bounds the solver worker pool (0 = GOMAXPROCS).
	Parallel int
	// BudgetFrac, when > 0, sizes a per-pod power-budget tree at this
	// fraction of summed provisioned caps (see Fleet.PodBudgets).
	BudgetFrac float64
}

func (c *FleetConfig) validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if len(c.LCClasses) == 0 || len(c.BEClasses) == 0 {
		return errors.New("cluster: fleet needs LC and BE classes")
	}
	if c.Hosts < 1 {
		return fmt.Errorf("cluster: fleet needs at least one host, got %d", c.Hosts)
	}
	if c.Jobs < 0 || c.Jobs > c.Hosts {
		return fmt.Errorf("cluster: %d jobs outside [0, %d hosts]", c.Jobs, c.Hosts)
	}
	for _, s := range append(append([]*workload.Spec{}, c.LCClasses...), c.BEClasses...) {
		if _, ok := c.Models[s.Name]; !ok {
			return fmt.Errorf("cluster: no fitted model for class %s", s.Name)
		}
	}
	if c.CapJitterFrac < 0 || c.CapJitterFrac >= 1 {
		return fmt.Errorf("cluster: cap jitter %v outside [0, 1)", c.CapJitterFrac)
	}
	if c.BudgetFrac < 0 || c.BudgetFrac > 1 {
		return fmt.Errorf("cluster: budget fraction %v outside [0, 1]", c.BudgetFrac)
	}
	return nil
}

// quantizeW rounds a wattage to the 1 W grid. Cap perturbations are
// always quantized before they reach a spec: fingerprints are exact
// strings, so an unquantized drift would mint a fresh column fingerprint
// per host per round and starve the delta-cell memo.
func quantizeW(w float64) float64 { return math.Round(w) }

// driftQuantum quantizes model-drift factors; recurring factors recur as
// fingerprints, so a model that drifts back to a previous operating point
// is served from the memo instead of recomputed.
const driftQuantum = 0.005

// diurnalPeriod is the number of Advance rounds in one simulated day.
const diurnalPeriod = 24

// Fleet is a synthetic hyperscale cluster driven round by round: caps
// drift on a diurnal envelope with per-host jitter, job-class models are
// re-fitted (nudged), and the sharded incremental assignment absorbs the
// changes without from-scratch solves.
type Fleet struct {
	cfg     FleetConfig
	lc      []*workload.Spec
	be      []*workload.Spec
	baseCap []float64 // per host: the class cap before jitter
	beClass []int     // per job: index into cfg.BEClasses
	models  map[string]*utility.Model
	// classModel and classDrift track each BE class's current (possibly
	// nudged) model and quantized drift factor.
	classModel []*utility.Model
	classDrift []float64
	sharded    *Sharded
	rng        *rand.Rand
	round      int
}

// NewFleet instantiates the fleet specs, jitters and quantizes the host
// caps, and builds the sharded solver state.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.CapJitterFrac == 0 {
		cfg.CapJitterFrac = 0.08
	}
	f := &Fleet{
		cfg:        cfg,
		lc:         make([]*workload.Spec, cfg.Hosts),
		be:         make([]*workload.Spec, cfg.Jobs),
		baseCap:    make([]float64, cfg.Hosts),
		beClass:    make([]int, cfg.Jobs),
		models:     make(map[string]*utility.Model, len(cfg.Models)+cfg.Hosts+cfg.Jobs),
		classModel: make([]*utility.Model, len(cfg.BEClasses)),
		classDrift: make([]float64, len(cfg.BEClasses)),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
	}
	for k, v := range cfg.Models {
		f.models[k] = v
	}
	for c := range cfg.BEClasses {
		f.classModel[c] = cfg.Models[cfg.BEClasses[c].Name]
		f.classDrift[c] = 1
	}
	for i := range f.lc {
		class := cfg.LCClasses[i%len(cfg.LCClasses)]
		inst := *class
		inst.Name = fmt.Sprintf("host-%d", i)
		f.baseCap[i] = class.ProvisionedPowerW
		inst.ProvisionedPowerW = quantizeW(class.ProvisionedPowerW * (1 + cfg.CapJitterFrac*(2*f.rng.Float64()-1)))
		f.lc[i] = &inst
		f.models[inst.Name] = cfg.Models[class.Name]
	}
	for i := range f.be {
		c := i % len(cfg.BEClasses)
		class := cfg.BEClasses[c]
		inst := *class
		inst.Name = fmt.Sprintf("job-%d", i)
		f.beClass[i] = c
		f.be[i] = &inst
		f.models[inst.Name] = f.classModel[c]
	}
	sh, err := NewSharded(MatrixConfig{
		Machine: cfg.Machine, LC: f.lc, BE: f.be, Models: f.models,
		Parallel: cfg.Parallel,
	}, cfg.Shard)
	if err != nil {
		return nil, err
	}
	f.sharded = sh
	return f, nil
}

// Sharded exposes the fleet's solver state (Refresh, Rebalance, Solve).
func (f *Fleet) Sharded() *Sharded { return f.sharded }

// Round returns the number of Advance calls so far.
func (f *Fleet) Round() int { return f.round }

// Advance applies one churn round: a churn-fraction of hosts re-jitters
// its provisioned cap on a diurnal envelope (quantized to watts), and
// each BE class independently re-fits its model with probability churn
// (a fresh *Model whose Alpha0 scales by a quantized drift factor, so
// every job of the class re-fingerprints at once). It mutates the specs
// and model map the sharded builders read and marks what it changed;
// call Refresh on the Sharded state to absorb the drift. Returns how many
// hosts and classes changed.
func (f *Fleet) Advance(churn float64) (hostsChanged, classesChanged int) {
	f.round++
	envelope := 1 + 0.05*math.Sin(2*math.Pi*float64(f.round)/diurnalPeriod)
	n := int(churn * float64(len(f.lc)))
	for _, i := range f.rng.Perm(len(f.lc))[:n] {
		jitter := 1 + f.cfg.CapJitterFrac*(2*f.rng.Float64()-1)
		next := quantizeW(f.baseCap[i] * envelope * jitter)
		if next != f.lc[i].ProvisionedPowerW {
			f.lc[i].ProvisionedPowerW = next
			f.sharded.MarkHost(i)
			hostsChanged++
		}
	}
	for c := range f.cfg.BEClasses {
		if f.rng.Float64() >= churn {
			continue
		}
		drift := 1 + 0.04*math.Sin(2*math.Pi*float64(f.round)/diurnalPeriod+float64(c))
		drift = math.Round(drift/driftQuantum) * driftQuantum
		if drift == f.classDrift[c] {
			continue
		}
		f.classDrift[c] = drift
		nudged := *f.cfg.Models[f.cfg.BEClasses[c].Name]
		nudged.Alpha0 *= drift
		f.classModel[c] = &nudged
		classesChanged++
	}
	if classesChanged > 0 {
		for i, c := range f.beClass {
			if name := f.be[i].Name; f.models[name] != f.classModel[c] {
				f.models[name] = f.classModel[c]
				f.sharded.MarkJob(name)
			}
		}
	}
	return hostsChanged, classesChanged
}

// PodBudgets composes the pod decomposition with the hierarchical budget
// tree: one leaf per pod under a DC root, every node sized at BudgetFrac
// of the provisioned capacity beneath it (quantized to watts), and the
// root budget divided demand-proportionally over the pods with
// tree.Alloc (demand = occupied-host capacity, floors = idle power). It
// returns the tree spec (parseable by tree.Parse) and the per-pod share
// in watts.
func (f *Fleet) PodBudgets() (string, map[string]float64, error) {
	if f.cfg.BudgetFrac <= 0 {
		return "", nil, errors.New("cluster: fleet has no budget fraction")
	}
	nPods := f.sharded.Pods()
	podSize := f.cfg.Shard.podSize()
	podCap := make([]float64, nPods)
	podDemand := make([]float64, nPods)
	podFloor := make([]float64, nPods)
	for i, lc := range f.lc {
		p := i / podSize
		podCap[p] += lc.ProvisionedPowerW
		podFloor[p] += f.cfg.Machine.IdlePowerW
	}
	for p := 0; p < nPods; p++ {
		rows, _ := f.sharded.PodDims(p)
		// Demand-weight each pod by the capacity its occupied hosts
		// could draw; empty pods still demand their idle floor.
		podDemand[p] = podFloor[p] + float64(rows)/float64(podSize)*podCap[p]
	}
	var total float64
	var b strings.Builder
	for p := 0; p < nPods; p++ {
		total += podCap[p]
	}
	fmt.Fprintf(&b, "dc:%g{", quantizeW(f.cfg.BudgetFrac*total))
	for p := 0; p < nPods; p++ {
		if p > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "pod-%d:%g", p, quantizeW(f.cfg.BudgetFrac*podCap[p]))
	}
	b.WriteByte('}')
	spec := b.String()
	tr, err := tree.Parse(spec)
	if err != nil {
		return "", nil, fmt.Errorf("cluster: pod budget tree: %w", err)
	}
	shares, err := tr.Alloc(podDemand, podCap, podFloor)
	if err != nil {
		return "", nil, err
	}
	out := make(map[string]float64, nPods)
	for p, s := range shares {
		out[fmt.Sprintf("pod-%d", p)] = quantizeW(s)
	}
	return spec, out, nil
}

// HyperscaleConfig drives RunHyperscale: a fleet, a number of churn
// rounds, and the per-round churn fraction.
type HyperscaleConfig struct {
	Fleet FleetConfig
	// Rounds is the number of churn rounds after the initial solve
	// (default 3).
	Rounds int
	// Churn is the per-round fraction of hosts re-jittered and the
	// per-class model re-fit probability (default 0.1).
	Churn float64
	// Trace, when non-nil, receives per-pod solve summaries with
	// delta-cell counters and rebalance migrations, stamped one simulated
	// minute per round.
	Trace *trace.Tracer
}

// HyperscaleRound reports one churn round.
type HyperscaleRound struct {
	Round int
	// Total is the summed placement value after refresh + rebalance.
	Total float64
	// Moves counts cross-pod migrations.
	Moves int
	// HostsChanged and ClassesChanged report the churn that was applied.
	HostsChanged, ClassesChanged int
	// Refresh counts the matrix delta work the round triggered.
	Refresh DeltaStats
}

// HyperscaleResult summarizes a RunHyperscale scenario.
type HyperscaleResult struct {
	Hosts, Jobs, Pods int
	// InitialTotal is the placement value of the cold solve;
	// FinalTotal after the last churn round.
	InitialTotal, FinalTotal float64
	// Moves is the total cross-pod migration count.
	Moves  int
	Rounds []HyperscaleRound
	// BudgetSpec and PodBudgets are set when the fleet has a BudgetFrac:
	// the per-pod budget tree and the end-of-run allocation.
	BudgetSpec string
	PodBudgets map[string]float64
}

// RunHyperscale builds the fleet, solves the initial placement, then
// drives Rounds churn rounds of Advance → Refresh → Rebalance → Solve
// through the sharded incremental path. Each round re-solves only the
// rows and columns the churn actually dirtied. Two seeded runs return
// equal results, delta counters included, only when each starts from an
// empty delta-cell memo (ResetMemo): the counters count the
// process-wide memo's misses and hits, so a second run in one process
// reads 0 cells computed.
func RunHyperscale(cfg HyperscaleConfig) (HyperscaleResult, error) {
	if cfg.Rounds == 0 {
		cfg.Rounds = 3
	}
	if cfg.Rounds < 0 {
		return HyperscaleResult{}, fmt.Errorf("cluster: %d rounds", cfg.Rounds)
	}
	if cfg.Churn == 0 {
		cfg.Churn = 0.1
	}
	if cfg.Churn < 0 || cfg.Churn > 1 {
		return HyperscaleResult{}, fmt.Errorf("cluster: churn %v outside [0, 1]", cfg.Churn)
	}
	f, err := NewFleet(cfg.Fleet)
	if err != nil {
		return HyperscaleResult{}, err
	}
	stamp := func(round int) time.Time {
		return simEpoch().Add(time.Duration(round) * time.Minute)
	}
	sh := f.Sharded()
	_, initial, err := sh.Solve(cfg.Trace, stamp(0))
	if err != nil {
		return HyperscaleResult{}, err
	}
	res := HyperscaleResult{
		Hosts: cfg.Fleet.Hosts, Jobs: cfg.Fleet.Jobs, Pods: sh.Pods(),
		InitialTotal: initial, FinalTotal: initial,
	}
	for r := 1; r <= cfg.Rounds; r++ {
		hosts, classes := f.Advance(cfg.Churn)
		stats, err := sh.Refresh()
		if err != nil {
			return res, err
		}
		moves, err := sh.Rebalance(cfg.Trace, stamp(r))
		if err != nil {
			return res, err
		}
		_, total, err := sh.Solve(cfg.Trace, stamp(r))
		if err != nil {
			return res, err
		}
		res.Rounds = append(res.Rounds, HyperscaleRound{
			Round: r, Total: total, Moves: moves,
			HostsChanged: hosts, ClassesChanged: classes, Refresh: stats,
		})
		res.FinalTotal = total
		res.Moves += moves
	}
	if cfg.Fleet.BudgetFrac > 0 {
		spec, shares, err := f.PodBudgets()
		if err != nil {
			return res, err
		}
		res.BudgetSpec = spec
		res.PodBudgets = shares
	}
	return res, nil
}
