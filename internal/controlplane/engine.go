package controlplane

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"pocolo/internal/cluster"
	"pocolo/internal/machine"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// placementEngine is the sharded solver the controller keeps warm across
// re-solves under SolverSharded. Its columns are every agent that has
// reported a fitted LC model, in name order: at discovery that is
// exactly the live fleet a from-scratch build would see, so the first
// placement is the same. Each later re-solve repairs the engine in
// place. Every agent's column spec and model-map entry follow its last
// report, a dead agent's column goes down, Refresh re-solves only the
// pods whose cells changed, and Evacuate moves the jobs an outage
// stranded in a pod with more jobs than live hosts. A crash or rejoin
// therefore re-solves only its own pod.
//
// The engine is rebuilt only when an agent reports for the first time,
// is renamed (names order the columns), or the platform the solve uses
// changes.
type placementEngine struct {
	sh      *cluster.Sharded
	machine machine.Config
	// hosts are the columns in order, and names their names when the
	// engine was built.
	hosts []*agentState
	names []string
	// specs[i] is hosts[i]'s column, mutated in place. Columns are named
	// by agent URL, so the placement Solve returns is keyed the way the
	// controller stores it, and an agent name can never collide with a
	// best-effort app's name in the shared model map.
	specs  []*workload.Spec
	models map[string]*utility.Model // shared with sh
	// member[i] reports whether c.agents[i] is a column.
	member []bool
}

// solveEngineLocked re-solves the placement on the warm engine, building
// the engine first when there is none or it is stale. Callers guarantee
// at least as many placeable agents as best-effort apps, so every app is
// placed.
func (c *Controller) solveEngineLocked(now time.Time) (map[string]string, error) {
	e := c.engine
	if e == nil || e.stale(c.agents) {
		var err error
		if e, err = c.buildEngineLocked(); err != nil {
			c.engine = nil
			return nil, err
		}
		c.engine = e
	}
	var placement map[string]string
	err := e.repair(c.cfg.BE)
	if err == nil {
		timer := c.obs.solveTimer()
		placement, _, err = e.sh.Solve(c.tracer, now)
		timer.Stop()
	}
	if err != nil {
		// A failed repair can leave the engine half-updated; the next
		// re-solve starts over from a fresh build.
		c.engine = nil
	}
	return placement, err
}

// buildEngineLocked builds the engine over every agent that has reported
// an LC model, in name order, with the best-effort models and platform
// the from-scratch rule picks.
func (c *Controller) buildEngineLocked() (*placementEngine, error) {
	e := &placementEngine{member: make([]bool, len(c.agents))}
	for i, a := range c.agents {
		if a.everSeen && a.last.LCModel != nil {
			e.hosts = append(e.hosts, a)
			e.member[i] = true
		}
	}
	sort.Slice(e.hosts, func(i, j int) bool { return e.hosts[i].name < e.hosts[j].name })
	e.names = make([]string, len(e.hosts))
	e.specs = make([]*workload.Spec, len(e.hosts))
	e.models = make(map[string]*utility.Model, len(e.hosts)+len(c.cfg.BE))
	for i, a := range e.hosts {
		if i > 0 && a.name == e.names[i-1] {
			return nil, fmt.Errorf("duplicate agent name %q", a.name)
		}
		e.names[i] = a.name
		e.specs[i] = lcSpec(a.url, a)
		e.models[a.url] = a.last.LCModel
	}
	first := e.firstLive()
	if first == nil {
		return nil, errors.New("no live agent to solve over")
	}
	e.machine = first.last.Machine
	be := make([]*workload.Spec, len(c.cfg.BE))
	for k, name := range c.cfg.BE {
		m, err := beModel(e.hosts, name)
		if err != nil {
			return nil, err
		}
		e.models[name] = m
		be[k] = &workload.Spec{Name: name, Class: workload.BestEffort}
	}
	sh, err := cluster.NewSharded(cluster.MatrixConfig{
		Machine: e.machine,
		LC:      e.specs,
		BE:      be,
		Models:  e.models,
		Obs:     c.cfg.Obs,
	}, cluster.ShardSettings{PodSize: c.cfg.PodSize})
	if err != nil {
		return nil, err
	}
	e.sh = sh
	return e, nil
}

// stale reports whether the engine must be rebuilt: an agent reported an
// LC model for the first time, a column's agent was renamed, or the first
// live column reports a different platform.
func (e *placementEngine) stale(agents []*agentState) bool {
	for i, a := range agents {
		if a.everSeen && a.last.LCModel != nil && !e.member[i] {
			return true
		}
	}
	for i, a := range e.hosts {
		if a.name != e.names[i] {
			return true
		}
	}
	first := e.firstLive()
	return first != nil && first.last.Machine != e.machine
}

// repair folds the agents' last reports into the engine: O(n) in-place
// updates (the builders notice a changed model by its pointer), then a
// Refresh that repairs only the pods whose cells changed, and an
// evacuation of jobs a pod-wide outage stranded. The caller reads the
// placement with Solve.
func (e *placementEngine) repair(bes []string) error {
	for i, a := range e.hosts {
		spec := e.specs[i]
		spec.PeakLoad = a.last.PeakLoad
		spec.ProvisionedPowerW = a.last.ProvisionedPowerW
		if m := a.last.LCModel; m != nil {
			e.models[spec.Name] = m
		}
		e.sh.SetHostDown(i, !a.placeable())
	}
	for _, be := range bes {
		m, err := beModel(e.hosts, be)
		if err != nil {
			return err
		}
		e.models[be] = m
	}
	if _, err := e.sh.Refresh(); err != nil {
		return err
	}
	_, err := e.sh.Evacuate()
	return err
}

// firstLive returns the first placeable column in name order, or nil.
func (e *placementEngine) firstLive() *agentState {
	for _, a := range e.hosts {
		if a.placeable() {
			return a
		}
	}
	return nil
}
