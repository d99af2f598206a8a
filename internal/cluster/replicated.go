package cluster

import (
	"fmt"

	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// RunReplicated evaluates a datacenter-scale variant of the evaluation:
// each of the LC clusters runs `replicas` servers and each BE application
// submits `replicas` instances (Section II-A's datacenter "comprising of
// multiple such clusters"). The placement routes through the sharded
// incremental path with one pod per replica cluster, which is exact
// here, not an approximation: the replicated matrix is block-constant,
// so the assignment relaxes to a transportation problem over job and
// host types whose optimum equals replicas times the base block's
// optimum — exactly what the per-replica pod solves achieve. Pod matrix
// rows share the base block's cell fingerprints (the delta-cell memo
// collapses all replicas onto one block of evaluations), and the
// per-pod solves fan through the bounded worker pool.
//
// Host names take the form "<lc>#<i>"; the returned Result keys hosts by
// those names and the placement by BE instance names "<be>#<i>".
func RunReplicated(cfg Config, replicas int, mgmt servermgr.LCPolicy) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	if replicas < 1 {
		return Result{}, fmt.Errorf("cluster: replicas must be at least 1, got %d", replicas)
	}

	nBE0, nLC0 := len(cfg.BE), len(cfg.LC)
	models := make(map[string]*utility.Model, len(cfg.Models)+(nBE0+nLC0)*replicas)
	for k, v := range cfg.Models {
		models[k] = v
	}
	instance := func(base *workload.Spec, replica int) *workload.Spec {
		c := *base
		c.Name = fmt.Sprintf("%s#%d", base.Name, replica)
		models[c.Name] = cfg.Models[base.Name]
		return &c
	}
	lc := make([]*workload.Spec, nLC0*replicas)
	for j := range lc {
		lc[j] = instance(cfg.LC[j%nLC0], j/nLC0)
	}
	be := make([]*workload.Spec, nBE0*replicas)
	for i := range be {
		be[i] = instance(cfg.BE[i%nBE0], i/nBE0)
	}
	sh, err := NewSharded(MatrixConfig{
		Machine: cfg.Machine, LC: lc, BE: be, Models: models,
		Parallel: cfg.Parallel,
	}, ShardSettings{PodSize: nLC0})
	if err != nil {
		return Result{}, err
	}
	placement, _, err := sh.Solve(cfg.Trace.Tracer(cfg.TraceLabel+"cluster"), simEpoch())
	if err != nil {
		return Result{}, err
	}
	nLC := nLC0 * replicas

	// Invert: each host gets at most one BE spec.
	beByHost := make(map[string]*workload.Spec, len(be))
	for beInst, lcInst := range placement {
		// Strip the "#k" suffix to recover the spec name.
		beName := beInst
		for k := len(beInst) - 1; k >= 0; k-- {
			if beInst[k] == '#' {
				beName = beInst[:k]
				break
			}
		}
		spec, err := findSpec(cfg.BE, beName)
		if err != nil {
			return Result{}, err
		}
		if _, dup := beByHost[lcInst]; dup {
			return Result{}, fmt.Errorf("cluster: two BE instances placed on %s", lcInst)
		}
		beByHost[lcInst] = spec
	}

	engine, err := sim.NewEngine(engineTick)
	if err != nil {
		return Result{}, err
	}
	var hosts []*sim.Host
	for j := 0; j < nLC; j++ {
		lc := cfg.LC[j%len(cfg.LC)]
		hostName := fmt.Sprintf("%s#%d", lc.Name, j/nLC0)
		host, err := sim.NewHost(sim.HostConfig{
			Name:    hostName,
			Machine: cfg.Machine,
			LC:      lc,
			BE:      beByHost[hostName],
			Trace:   workload.UniformSweep(cfg.Dwell),
			Seed:    cfg.Seed + int64(j)*977,
		})
		if err != nil {
			return Result{}, err
		}
		if err := engine.AddHost(host); err != nil {
			return Result{}, err
		}
		mgr, err := servermgr.New(servermgr.Config{
			Host:        host,
			Model:       cfg.Models[lc.Name],
			Policy:      mgmt,
			TargetSlack: cfg.TargetSlack,
			Seed:        cfg.Seed + int64(j)*389,
		})
		if err != nil {
			return Result{}, err
		}
		if err := mgr.Attach(engine); err != nil {
			return Result{}, err
		}
		hosts = append(hosts, host)
	}
	if err := engine.Run(workload.UniformSweep(cfg.Dwell).Duration()); err != nil {
		return Result{}, err
	}

	res := Result{
		Placement: placement,
		Hosts:     make(map[string]sim.Metrics, len(hosts)),
	}
	var normSum float64
	var normCount int
	var utilSum float64
	for _, h := range hosts {
		m := h.Metrics()
		res.Hosts[h.Name()] = m
		res.TotalEnergyKWh += m.EnergyKWh
		res.TotalBEOps += m.BEOps
		utilSum += m.PowerUtil
		if m.SLOViolFrac > res.SLOViolFrac {
			res.SLOViolFrac = m.SLOViolFrac
		}
		if be := h.BE(); be != nil {
			normSum += m.BEMeanThr / be.PeakLoad
			normCount++
		}
	}
	res.MeanPowerUtil = utilSum / float64(len(hosts))
	if normCount > 0 {
		res.BENormThroughput = normSum / float64(normCount)
	}
	return res, nil
}

func findSpec(specs []*workload.Spec, name string) (*workload.Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("cluster: unknown spec %q", name)
}
