package cluster

import (
	"errors"
	"fmt"

	"pocolo/internal/servermgr"
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
// Every host runs on its own engine through the worker pool, as in
// RunPlacement, under the invariant harness and tracing when cfg asks for
// them. Replicated runs implement no power budget, so a set cfg.Budget is
// an error rather than silently ignored. Host names take the form
// "<lc>#<i>"; the returned Result keys hosts by those names and the
// placement by BE instance names "<be>#<i>".
func RunReplicated(cfg Config, replicas int, mgmt servermgr.LCPolicy) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	if replicas < 1 {
		return Result{}, fmt.Errorf("cluster: replicas must be at least 1, got %d", replicas)
	}
	if cfg.Budget != nil {
		return Result{}, errors.New("cluster: replicated runs take no power budget")
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
	if _, _, err := sh.Solve(cfg.Trace.Tracer(cfg.TraceLabel+"cluster"), simEpoch()); err != nil {
		return Result{}, err
	}
	placement := sh.Placement()
	servers, err := cfg.sweepServers(lc, be, placement, mgmt)
	if err != nil {
		return Result{}, err
	}
	metrics, err := runManagedHosts(cfg, servers, workload.UniformSweep(cfg.Dwell).Duration())
	if err != nil {
		return Result{}, err
	}
	return summarize(placement, servers, metrics), nil
}
