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
// place from the agents the controller queued since the last one
// (queueLocked): each queued column's spec and model-map entry follow
// its agent's last report and a dead agent's column goes down; the rows'
// best-effort models are re-read only when a queued agent is one they
// may come from. Refresh then re-solves only the marked pods, and
// Evacuate moves the jobs an outage stranded in a pod with more jobs
// than live hosts. A crash or rejoin therefore re-solves only its own
// pod, and no step of a re-solve visits the whole fleet.
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
	// col[slot] is the column of c.agents[slot], or -1.
	col []int
	// rows are the best-effort apps the engine places, in BE order.
	rows []string
	// source is the last column a row's best-effort model was read from:
	// a change to a later column cannot change any row's model, nor the
	// first live column, whose platform the solve uses.
	source int
	// reread is set when a queued column is at or before source: the
	// rows' models and the platform are read again before the solve.
	reread bool
}

// solveEngineLocked re-solves the placement on the warm engine over the
// nLive placeable agents and installs it, building the engine first
// when there is none or a queued change needs a new one. Apps that
// selectRowsLocked leaves out are unplaced; every other app is placed.
// It returns how many apps changed agent.
func (c *Controller) solveEngineLocked(now time.Time, nLive int) (moved int, err error) {
	rows := c.cfg.BE
	var unplaced []string
	if len(rows) > nLive {
		rows, unplaced, err = c.selectRowsLocked(nLive)
	}
	e := c.engine
	build := e == nil || !e.sameRows(rows)
	if err == nil && !build {
		build, err = e.update(c.changed)
	}
	if err == nil && build {
		e, err = c.buildEngineLocked(rows)
	}
	var placed []cluster.Assignment
	if err == nil {
		err = e.repair()
	}
	if err == nil {
		timer := c.obs.solveTimer()
		placed, _, err = e.sh.Solve(c.tracer, now)
		timer.Stop()
	}
	// A failure can leave the engine half-updated, so it drops the engine
	// with the queue: the next re-solve, on the next queued change, starts
	// over from a fresh build, which reads every agent.
	c.clearQueueLocked()
	if err != nil {
		c.engine = nil
		return 0, err
	}
	c.engine = e
	c.unplaced = unplaced
	if build {
		next := make(map[string]string, len(placed))
		for _, p := range placed {
			next[p.Job] = p.Host
		}
		return c.setPlacementLocked(now, next), nil
	}
	return c.patchPlacementLocked(now, placed), nil
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
		m, _, err := beModel(live, name)
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
// models and platform the from-scratch rule picks, and takes the
// columns of agents that cannot host work down.
func (c *Controller) buildEngineLocked(rows []string) (*placementEngine, error) {
	timer := c.obs.buildTimer()
	defer timer.Stop()
	e := &placementEngine{col: make([]int, len(c.agents)), rows: rows}
	for i, a := range c.agents {
		e.col[i] = -1
		if a.everSeen && a.last.LCModel != nil {
			e.hosts = append(e.hosts, a)
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
		e.col[a.slot] = i
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
		m, col, err := beModel(e.hosts, name)
		if err != nil {
			return nil, err
		}
		e.models[name] = m
		e.source = max(e.source, col)
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
	for i, a := range e.hosts {
		if !a.placeable() {
			sh.SetHostDown(i, true)
		}
	}
	return e, nil
}

// sameRows reports whether rows is the engine's row set: the same slice
// (the whole BE list, as on every re-solve without overflow) or an equal
// one.
func (e *placementEngine) sameRows(rows []string) bool {
	if len(rows) != len(e.rows) {
		return false
	}
	return len(rows) == 0 || &rows[0] == &e.rows[0] || slices.Equal(rows, e.rows)
}

// update folds the queued agents' last reports into the engine and marks
// what changed: each queued column's spec, model-map entry and liveness,
// and, when a queued column is at or before source, the rows' best-effort
// models. It reports rebuild when a queued change needs a new engine: an
// agent reported an LC model for the first time, a column's agent was
// renamed, or the first live column reports a different platform. The
// engine is then left to be discarded.
func (e *placementEngine) update(queue []*agentState) (rebuild bool, err error) {
	for _, a := range queue {
		i := e.col[a.slot]
		if i < 0 {
			if a.everSeen && a.last.LCModel != nil {
				return true, nil
			}
			continue
		}
		if a.name != e.names[i] {
			return true, nil
		}
		spec := e.specs[i]
		spec.PeakLoad = a.last.PeakLoad
		spec.ProvisionedPowerW = a.last.ProvisionedPowerW
		if m := a.last.LCModel; m != nil {
			e.models[spec.Name] = m
		}
		e.sh.SetHostDown(i, !a.placeable())
		e.sh.MarkHost(i)
		e.reread = e.reread || i <= e.source
	}
	if !e.reread {
		return false, nil
	}
	e.reread = false
	if first := e.firstLive(); first != nil && first.last.Machine != e.machine {
		return true, nil
	}
	e.source = 0
	for _, be := range e.rows {
		m, col, err := beModel(e.hosts, be)
		if err != nil {
			return false, err
		}
		e.source = max(e.source, col)
		if e.models[be] != m {
			e.models[be] = m
			e.sh.MarkJob(be)
		}
	}
	return false, nil
}

// repair re-solves the marked pods (Refresh) and evacuates the jobs an
// outage stranded on down hosts. The caller reads the placement with
// Solve.
func (e *placementEngine) repair() error {
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
// app's (replica instances such as "graph#3" share "graph"'s). It also
// returns that agent's index in agents.
func beModel(agents []*agentState, be string) (*utility.Model, int, error) {
	for i, a := range agents {
		if !a.placeable() {
			continue
		}
		if m, ok := a.last.BEModels[be]; ok && m != nil {
			return m, i, nil
		}
		if m, ok := a.last.BEModels[baseBE(be)]; ok && m != nil {
			return m, i, nil
		}
	}
	return nil, 0, fmt.Errorf("no live agent reports a model for best-effort app %q", be)
}
