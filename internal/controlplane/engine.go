package controlplane

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"pocolo/internal/cluster"
	"pocolo/internal/machine"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// placementEngine is the controller's placement engine: one sharded
// solver kept warm across re-solves. Its columns are every agent that
// has reported a fitted LC model, in name order: at discovery that is
// exactly the live fleet a from-scratch build would see, so the first
// placement is the same. A fleet of at most PodSize agents is one pod,
// solved exactly. Its rows are the best-effort apps in BE order: all of
// them, or while they outnumber the placeable agents, the ones
// selectRowsLocked keeps. Each later re-solve repairs the engine in
// place. Every agent's column spec and model-map entry follow its last
// report, a dead agent's column goes down, Refresh re-solves only the
// pods whose cells changed, and Evacuate moves the jobs an outage
// stranded in a pod with more jobs than live hosts. A crash or rejoin
// therefore re-solves only its own pod.
//
// The engine is rebuilt only when an agent reports for the first time,
// is renamed (names order the columns), the platform the solve uses
// changes, or the row set changes.
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
	// rows are the best-effort apps the engine places, in BE order.
	rows []string
}

// solveEngineLocked re-solves the placement on the warm engine over the
// nLive placeable agents, building the engine first when there is none
// or it is stale. Apps that selectRowsLocked leaves out are returned
// unplaced; every other app is placed.
func (c *Controller) solveEngineLocked(now time.Time, nLive int) (placement map[string]string, unplaced []string, err error) {
	rows := c.cfg.BE
	if len(rows) > nLive {
		if rows, unplaced, err = c.selectRowsLocked(nLive); err != nil {
			return nil, nil, err
		}
	}
	e := c.engine
	if e == nil || e.stale(c.agents, rows) {
		if e, err = c.buildEngineLocked(rows); err != nil {
			c.engine = nil
			return nil, nil, err
		}
		c.engine = e
	}
	err = e.repair()
	if err == nil {
		timer := c.obs.solveTimer()
		placement, _, err = e.sh.Solve(c.tracer, now)
		timer.Stop()
	}
	if err != nil {
		// A failed repair can leave the engine half-updated; the next
		// re-solve starts over from a fresh build.
		c.engine = nil
		return nil, nil, err
	}
	return placement, unplaced, nil
}

// selectRowsLocked is the overflow rule, applied while best-effort apps
// outnumber the nLive placeable agents. It keeps the nLive apps with the
// highest best-case value (an app's best cell over the live agents, or 0
// when every cell is lower), breaking ties in BE order, and reports the
// rest unplaced. Replicas share their base app's model, so it prices one
// matrix row per distinct model rather than one per app.
func (c *Controller) selectRowsLocked(nLive int) (rows, unplaced []string, err error) {
	live := make([]*agentState, 0, nLive)
	for _, a := range c.agents {
		if a.placeable() {
			live = append(live, a)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].name < live[j].name })
	lc := make([]*workload.Spec, len(live))
	models := make(map[string]*utility.Model, len(live))
	for i, a := range live {
		lc[i] = lcSpec(a)
		models[a.url] = a.last.LCModel
	}
	var be []*workload.Spec
	rowOf := make(map[*utility.Model]int)
	appRow := make([]int, len(c.cfg.BE))
	for k, name := range c.cfg.BE {
		m, err := beModel(live, name)
		if err != nil {
			return nil, nil, err
		}
		r, ok := rowOf[m]
		if !ok {
			r = len(be)
			rowOf[m] = r
			be = append(be, &workload.Spec{Name: name, Class: workload.BestEffort})
			models[name] = m
		}
		appRow[k] = r
	}
	mx, err := cluster.BuildMatrix(cluster.MatrixConfig{Machine: live[0].last.Machine, LC: lc, BE: be, Models: models})
	if err != nil {
		return nil, nil, err
	}
	best := make([]float64, len(be))
	for r, row := range mx.Value {
		for _, v := range row {
			best[r] = max(best[r], v)
		}
	}
	order := make([]int, len(c.cfg.BE))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return best[appRow[order[i]]] > best[appRow[order[j]]] })
	keep := make([]bool, len(order))
	for _, k := range order[:nLive] {
		keep[k] = true
	}
	for k, name := range c.cfg.BE {
		if keep[k] {
			rows = append(rows, name)
		} else {
			unplaced = append(unplaced, name)
		}
	}
	sort.Strings(unplaced)
	return rows, unplaced, nil
}

// buildEngineLocked builds the engine over every agent that has reported
// an LC model, in name order, with rows as its rows and the best-effort
// models and platform the from-scratch rule picks.
func (c *Controller) buildEngineLocked(rows []string) (*placementEngine, error) {
	timer := c.obs.buildTimer()
	defer timer.Stop()
	e := &placementEngine{member: make([]bool, len(c.agents)), rows: rows}
	for i, a := range c.agents {
		if a.everSeen && a.last.LCModel != nil {
			e.hosts = append(e.hosts, a)
			e.member[i] = true
		}
	}
	sort.Slice(e.hosts, func(i, j int) bool { return e.hosts[i].name < e.hosts[j].name })
	e.names = make([]string, len(e.hosts))
	e.specs = make([]*workload.Spec, len(e.hosts))
	e.models = make(map[string]*utility.Model, len(e.hosts)+len(rows))
	for i, a := range e.hosts {
		if i > 0 && a.name == e.names[i-1] {
			return nil, fmt.Errorf("duplicate agent name %q", a.name)
		}
		e.names[i] = a.name
		e.specs[i] = lcSpec(a)
		e.models[a.url] = a.last.LCModel
	}
	first := e.firstLive()
	if first == nil {
		return nil, errors.New("no live agent to solve over")
	}
	e.machine = first.last.Machine
	be := make([]*workload.Spec, len(rows))
	for k, name := range rows {
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

// stale reports whether the engine must be rebuilt: the row set is not
// rows, an agent reported an LC model for the first time, a column's agent
// was renamed, or the first live column reports a different platform.
func (e *placementEngine) stale(agents []*agentState, rows []string) bool {
	if !slices.Equal(e.rows, rows) {
		return true
	}
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
func (e *placementEngine) repair() error {
	for i, a := range e.hosts {
		spec := e.specs[i]
		spec.PeakLoad = a.last.PeakLoad
		spec.ProvisionedPowerW = a.last.ProvisionedPowerW
		if m := a.last.LCModel; m != nil {
			e.models[spec.Name] = m
		}
		e.sh.SetHostDown(i, !a.placeable())
	}
	for _, be := range e.rows {
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

// lcSpec reconstructs the LC workload spec of an agent's matrix column,
// named by its URL. The matrix builder only consumes the LC envelope
// (peak load and provisioned power) plus the fitted model, all reported
// in stats, so the controller needs no local catalog.
func lcSpec(a *agentState) *workload.Spec {
	return &workload.Spec{
		Name:              a.url,
		Class:             workload.LatencyCritical,
		PeakLoad:          a.last.PeakLoad,
		ProvisionedPowerW: a.last.ProvisionedPowerW,
	}
}

// beModel picks a best-effort app's model: the first placeable agent, in
// the given (name) order, that reports the app's own model or its base
// app's (replica instances such as "graph#3" share "graph"'s).
func beModel(agents []*agentState, be string) (*utility.Model, error) {
	for _, a := range agents {
		if !a.placeable() {
			continue
		}
		if m, ok := a.last.BEModels[be]; ok && m != nil {
			return m, nil
		}
		if m, ok := a.last.BEModels[baseBE(be)]; ok && m != nil {
			return m, nil
		}
	}
	return nil, fmt.Errorf("no live agent reports a model for best-effort app %q", be)
}
