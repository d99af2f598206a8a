package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"pocolo/internal/controlplane"
	"pocolo/internal/invariant"
	"pocolo/internal/obs"
	"pocolo/internal/parallel"
	"pocolo/internal/trace"
)

// workloadSpec is one seeded fleet and fault schedule. README.md gives the
// reason for each.
type workloadSpec struct {
	name      string
	agents    int
	transport string
	synthetic bool
	// rounds is the minimum number of measured rounds, and the window the
	// decision metrics and the decision digest cover, so both are the same
	// whatever the run's wall-clock length.
	rounds int
	// Every crashEvery measured rounds one running member crashes for
	// crashFor rounds, then restarts and resyncs with a full frame.
	crashEvery, crashFor int
	// Every cutEvery measured rounds one pod's budget is cut by cutLevel
	// for cutFor rounds.
	cutEvery, cutFor int
	// sensitivity is how strongly the workload's rounds slow down when the
	// host does, relative to the calibration probe: the exponent on the
	// probe's reference-time factor (README.md, Timing method).
	sensitivity float64
}

var workloads = []workloadSpec{
	{name: "steady-1k", agents: 1000, transport: controlplane.TransportStream, rounds: 300, sensitivity: 1},
	{name: "churn-1k", agents: 1000, transport: controlplane.TransportStream, rounds: 300,
		crashEvery: 2, crashFor: 4, cutEvery: 50, cutFor: 10, sensitivity: 1},
	{name: "poll-1k", agents: 1000, transport: controlplane.TransportPoll, rounds: 200, sensitivity: 1},
	{name: "scale-4k", agents: 4000, transport: controlplane.TransportStream, synthetic: true, rounds: 200,
		crashEvery: 10, crashFor: 4, sensitivity: 1.5},
}

const (
	warmupRounds = 5
	podSize      = 64
	deadAfter    = 2
	cutLevel     = 0.3
	// capTolerance matches the controller's own push threshold: a cap
	// within it of the share counts as applied.
	capTolerance = 1e-9

	decodeHist = "pocolo_obs_heartbeat_decode_seconds"
	budgetHist = "pocolo_obs_budget_rebalance_seconds"
	solveHist  = "pocolo_obs_pod_solve_seconds"
)

// instance is one fleet and the controller under test, driven in
// closed-loop lockstep by a single goroutine.
type instance struct {
	w       workloadSpec
	members []member
	names   []string
	be      []string
	fab     *fabric
	ctl     *controlplane.Controller
	clock   atomic.Int64 // controller clock, Unix ns; one heartbeat per round

	encs    []*controlplane.HeartbeatEncoder // nil under polling
	frames  [][]byte
	reports []controlplane.StatsResponse
	batch   [][]byte
	batchOf []int // member index of each batch frame

	// Traced instances only.
	reg         *obs.Registry
	tracer      *trace.Tracer
	budgetLat   *obs.Histogram
	cursor      uint64 // tracer events already read
	cellsDone   int64  // SolveSummary cells computed, cumulative
	cellsReused int64

	m          int     // index of the next round; negative during set-up
	setupSpeed float64 // mean reference-time factor of the set-up rounds
	faults     *rand.Rand
	crashedAt  []int
	downUntil  []int // round a crashed member restarts, or -1
	cutPod     string
	cutOrig    float64

	// Correctness gate and decision bookkeeping.
	nodeHosts  map[string][]string // budget-tree node → hosts beneath it
	lastSolves int
	prevWant   []want
	pending    []int // round an unapplied desired change began, or -1
	prevBEOps  []float64
	dec        decisions
	digest     uint64
	digests    []uint64 // chained decision digest after each window round
	lastOps    opCount
}

// want is the state the controller wants installed on one member.
type want struct {
	be   string
	capW float64
}

// decisions accumulates the decision-quality metrics over the window.
type decisions struct {
	lagSum, lagN              int
	beOps                     float64
	liveRounds, sloMet, capOK int
	opsAttempted, opsFailed   int64
}

// opCount is a snapshot of the operations the controller attempted.
type opCount struct {
	frames, badAcks, probes, probesFailed, pushes, pushFailed int64
}

// newInstance builds the fleet and the controller, then runs the
// discovery round and the warm-up rounds: everything set-up time covers.
func newInstance(ctx context.Context, w workloadSpec, seed int64, traced bool) (*instance, error) {
	e, err := loadEnv()
	if err != nil {
		return nil, err
	}
	n := w.agents
	in := &instance{
		w:         w,
		members:   make([]member, n),
		names:     make([]string, n),
		be:        make([]string, n/2),
		reports:   make([]controlplane.StatsResponse, n),
		faults:    rand.New(rand.NewSource(seed ^ 0x5eed)),
		crashedAt: make([]int, n),
		downUntil: make([]int, n),
		prevWant:  make([]want, n),
		pending:   make([]int, n),
		prevBEOps: make([]float64, n),
		m:         -(warmupRounds + 1),
	}
	var tmpls map[string]*controlplane.StatsResponse
	if w.synthetic {
		if tmpls, err = e.templates(); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	phases := loadPhases(n, rng)
	urls := make([]string, n)
	provisioned := make([]float64, n)
	for i := range in.members {
		lc := e.lcs[i%len(e.lcs)]
		in.names[i] = fmt.Sprintf("agent-%04d", i)
		urls[i] = "http://" + in.names[i]
		provisioned[i] = lc.ProvisionedPowerW
		in.pending[i], in.downUntil[i] = -1, -1
		if w.synthetic {
			in.members[i] = newSynthMember(in.names[i], tmpls[lc.Name], phases[i])
			continue
		}
		if in.members[i], err = e.newRealMember(in.names[i], lc, phases[i], rng.Int63()); err != nil {
			return nil, err
		}
	}
	// One best-effort replica per two members: a real assignment problem
	// with room for every replica.
	for i := range in.be {
		in.be[i] = fmt.Sprintf("%s#%d", e.bes[i%len(e.bes)].Name, i/len(e.bes))
	}
	in.fab = newFabric(urls, in.members)
	in.fab.t0 = time.Now()
	in.clock.Store(time.Unix(1_700_000_000, 0).UnixNano())
	cfg := controlplane.ControllerConfig{
		AgentURLs:  urls,
		BE:         in.be,
		Heartbeat:  time.Second,
		Timeout:    30 * time.Second, // in-process: only a stalled machine reaches it
		DeadAfter:  deadAfter,
		Solver:     controlplane.SolverSharded,
		Transport:  w.transport,
		PodSize:    podSize,
		BudgetTree: budgetTreeSpec(in.names, provisioned, podSize),
		Seed:       seed,
		Client:     &http.Client{Transport: in.fab},
		Now:        func() time.Time { return time.Unix(0, in.clock.Load()) },
	}
	if traced {
		in.reg = obs.NewRegistry()
		in.tracer = trace.New("controller", 1<<15)
		cfg.Obs, cfg.Trace = in.reg, in.tracer
		in.fab.timed = true
	}
	if in.ctl, err = controlplane.NewController(cfg); err != nil {
		return nil, err
	}
	in.budgetLat = in.reg.Histogram(budgetHist, "")
	if w.transport == controlplane.TransportStream {
		in.encs = make([]*controlplane.HeartbeatEncoder, n)
		in.frames = make([][]byte, n)
		for i := range in.encs {
			in.encs[i] = controlplane.NewHeartbeatEncoder(in.names[i], urls[i])
		}
	}
	in.nodeHosts = make(map[string][]string)
	for node := range in.ctl.NodeBudgets() {
		in.nodeHosts[node] = in.ctl.NodeHosts(node)
	}
	var speeds []float64
	for in.m < 0 {
		rs, err := in.step(ctx)
		if err != nil {
			return nil, err
		}
		// Set-up is mostly construction, not the workload's rounds, so it
		// takes the probe's own factor, without the rounds' sensitivity.
		speeds = append(speeds, math.Pow(rs.speed, 1/w.sensitivity))
	}
	in.setupSpeed = mean(speeds)
	return in, nil
}

// roundSample is what one round measured. Durations are wall or CPU time;
// speed turns them into reference time.
type roundSample struct {
	speed                               float64
	advance, encode, ingest, round, cpu time.Duration
	reports                             int
	bytes                               int64
	alloc, roundAlloc                   uint64
	probe, push, budget                 time.Duration // traced only
	resolved                            bool
	failures                            []string
}

// step runs one closed-loop round: faults, one simulated second on every
// running member, one report each, IngestBatch once (stream), Round once,
// then the correctness gate and decision bookkeeping outside every timed
// call.
func (in *instance) step(ctx context.Context) (roundSample, error) {
	var rs roundSample
	m := in.m
	in.m++
	if err := in.applyFaults(m); err != nil {
		return rs, err
	}
	in.clock.Add(int64(time.Second))
	down := in.fab.down

	t := time.Now()
	err := parallel.ForEach(len(in.members), 0, func(i int) error {
		if down[i] {
			return nil
		}
		return in.members[i].advance()
	})
	rs.advance = time.Since(t)
	in.span("advance", m, t, t.Add(rs.advance))
	if err != nil {
		return rs, fmt.Errorf("advancing the fleet: %w", err)
	}

	t = time.Now()
	err = parallel.ForEach(len(in.members), 0, func(i int) error {
		if down[i] {
			return nil
		}
		st, epoch := in.members[i].report()
		in.reports[i] = st
		if in.encs != nil {
			frame, err := in.encs[i].Encode(st, epoch)
			in.frames[i] = frame
			return err
		}
		// Polling: the member renders its /v1/stats body now, so the
		// round times the controller's probes and decodes only.
		body, err := json.Marshal(st)
		in.fab.bodies[i] = append(body, '\n')
		return err
	})
	rs.encode = time.Since(t)
	in.span("encode", m, t, t.Add(rs.encode))
	if err != nil {
		return rs, fmt.Errorf("encoding reports: %w", err)
	}
	in.batch, in.batchOf = in.batch[:0], in.batchOf[:0]
	for i := range in.members {
		if down[i] {
			continue
		}
		rs.reports++
		if in.encs != nil {
			in.batch = append(in.batch, in.frames[i])
			in.batchOf = append(in.batchOf, i)
			rs.bytes += int64(len(in.frames[i]))
		} else {
			rs.bytes += int64(len(in.fab.bodies[i]))
		}
	}

	var budget0 obs.HistogramSnapshot
	if in.fab.timed {
		in.fab.beginRound(m)
		budget0 = in.budgetLat.Snapshot()
	}
	// The controller's calls run on a freshly collected heap with the
	// collector off, so no GC cycle, assist or sweep lands in a timed call
	// by chance. Where cycles fell otherwise moved round times by ±20 %
	// from run to run. Allocation is reported on its own instead.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	before := calibrate()
	c0, a0 := cpuTime(), heapAllocs()
	t0 := time.Now()
	var acks []controlplane.HeartbeatAck
	if in.encs != nil {
		acks = in.ctl.IngestBatch(in.batch)
	}
	a1 := heapAllocs()
	t1 := time.Now()
	in.ctl.Round(ctx)
	t2 := time.Now()
	c1, a2 := cpuTime(), heapAllocs()
	rs.round, rs.cpu = t2.Sub(t1), c1-c0
	rs.alloc, rs.roundAlloc = a2-a0, a2-a1
	rs.speed = speed(before, calibrate(), in.w.sensitivity)
	debug.SetGCPercent(gcPercent)
	if in.encs != nil {
		rs.ingest = t1.Sub(t0)
		in.span("ingest", m, t0, t1)
	}
	in.span("round", m, t1, t2)

	ops := in.opsNow()
	ops.frames = in.lastOps.frames + int64(len(acks))
	ops.badAcks = in.lastOps.badAcks
	for k, ack := range acks {
		in.encs[in.batchOf[k]].Ack(ack)
		if ack.Resync || ack.Reject {
			ops.badAcks++
		}
	}
	if in.fab.timed {
		rs.probe, rs.push = in.fab.phases()
		rs.budget = time.Duration((in.budgetLat.Snapshot().SumSeconds - budget0.SumSeconds) * 1e9)
		in.readSolveSummaries()
	}

	st := in.ctl.Status()
	rs.resolved = st.Solves > in.lastSolves
	in.lastSolves = st.Solves
	if m >= 0 {
		rs.failures = in.gate(m, st, rs)
	}
	in.decide(m, st, ops)
	in.lastOps = ops
	return rs, nil
}

// span records a harness call as a top-level span when spans are kept.
func (in *instance) span(name string, round int, start, end time.Time) {
	f := in.fab
	if !f.keepSpans {
		return
	}
	f.mu.Lock()
	f.spans = append(f.spans, span{Name: name, Round: round, Start: start.Sub(f.t0).Nanoseconds(), End: end.Sub(f.t0).Nanoseconds()})
	f.mu.Unlock()
}

func (in *instance) opsNow() opCount {
	f := in.fab
	return opCount{
		probes:       f.probes.Load(),
		probesFailed: f.probesFailed.Load(),
		pushes:       f.pushCap.Load() + f.pushAssign.Load(),
		pushFailed:   f.pushFailed.Load(),
	}
}

// readSolveSummaries folds the round's cluster-level SolveSummary events
// into the cumulative cell counters.
func (in *instance) readSolveSummaries() {
	var events []trace.Event
	events, in.cursor = in.tracer.EventsSince(in.cursor, 0)
	for _, ev := range events {
		if ev.Kind == trace.KindSolve && ev.Solve.Method == "sharded" {
			in.cellsDone += int64(ev.Solve.CellsComputed)
			in.cellsReused += int64(ev.Solve.CellsReused)
		}
	}
}

// applyFaults restarts members whose crash has run its course, then
// injects round m's scheduled crash and budget cut.
func (in *instance) applyFaults(m int) error {
	if m < 0 {
		return nil
	}
	w, down := in.w, in.fab.down
	for i := range down {
		if down[i] && in.downUntil[i] == m {
			down[i] = false
			if in.encs != nil {
				in.encs[i].Resync() // a restarted agent opens with a full frame
			}
		}
	}
	if w.crashEvery > 0 && m%w.crashEvery == 0 {
		i := in.faults.Intn(len(down))
		for down[i] {
			i = in.faults.Intn(len(down))
		}
		down[i] = true
		in.crashedAt[i], in.downUntil[i] = m, m+w.crashFor
	}
	if w.cutEvery > 0 {
		switch m % w.cutEvery {
		case 0:
			pods := (len(in.members) + podSize - 1) / podSize
			in.cutPod = fmt.Sprintf("pod-%d", in.faults.Intn(pods))
			in.cutOrig = in.ctl.NodeBudgets()[in.cutPod]
			return in.ctl.SetBudget(in.cutPod, in.cutOrig*(1-cutLevel), "brownout")
		case w.cutFor:
			return in.ctl.SetBudget(in.cutPod, in.cutOrig, "restore")
		}
	}
	return nil
}

// gate is the per-round correctness check. It reads the controller only
// through Status and the fleet only through harness truth.
func (in *instance) gate(m int, st controlplane.Status, rs roundSample) []string {
	var fails []string
	// A crashed member may stay placed until the controller could have
	// noticed: DeadAfter missed heartbeats.
	allowed := make(map[string]bool, len(in.names))
	for i, name := range in.names {
		if !in.fab.down[i] || m-in.crashedAt[i] < deadAfter-1 {
			allowed[name] = true
		}
	}
	if err := invariant.CheckPlacement(st.Placement, allowed); err != nil {
		fails = append(fails, err.Error())
	}
	if st.Degraded || len(st.Placement) != len(in.be) {
		fails = append(fails, fmt.Sprintf("%d of %d best-effort apps placed (degraded %t)", len(st.Placement), len(in.be), st.Degraded))
	}
	if st.Budget == nil {
		fails = append(fails, "no budget status")
	} else {
		for node, budgetW := range st.Budget.NodeBudgets {
			var sum float64
			for _, h := range in.nodeHosts[node] {
				sum += st.Budget.Shares[h]
			}
			if sum > budgetW+1e-6 {
				fails = append(fails, fmt.Sprintf("budget node %s: shares %.6f W exceed %.6f W", node, sum, budgetW))
			}
		}
	}
	if in.fab.timed && !reconciles(rs.round, rs.probe, rs.budget, rs.push) {
		fails = append(fails, fmt.Sprintf("probe %v + budget %v + push %v exceed round %v", rs.probe, rs.budget, rs.push, rs.round))
	}
	return fails
}

// decide tracks, for every running member, the rounds from a change in
// what the controller wants installed on it until the member has it, and
// accumulates the decision-quality metrics and the decision digest over
// the window.
func (in *instance) decide(m int, st controlplane.Status, ops opCount) {
	inWindow := m >= 0 && m < in.w.rounds
	placedOn := make(map[string]string, len(st.Placement))
	for be, host := range st.Placement {
		placedOn[host] = be
	}
	var shares map[string]float64
	if st.Budget != nil {
		shares = st.Budget.Shares
	}
	h := fnv.New64a()
	var buf []byte
	for i, name := range in.names {
		w := want{be: placedOn[name], capW: shares[name]}
		changed := w != in.prevWant[i] || in.downUntil[i] == m
		in.prevWant[i] = w
		if in.fab.down[i] {
			in.pending[i] = -1 // a dead process cannot apply anything
			continue
		}
		if changed && in.pending[i] < 0 {
			in.pending[i] = m
		}
		if in.pending[i] >= 0 {
			be, capW := in.members[i].applied()
			if be == w.be && math.Abs(capW-w.capW) <= capTolerance {
				if inWindow {
					in.dec.lagSum += m - in.pending[i] + 1
					in.dec.lagN++
				}
				in.pending[i] = -1
			}
		}
		r := &in.reports[i]
		if inWindow {
			in.dec.liveRounds++
			if r.Slack >= 0 {
				in.dec.sloMet++
			}
			if r.PowerW <= r.CapW+1 {
				in.dec.capOK++
			}
			in.dec.beOps += r.BEOps - in.prevBEOps[i]
			buf = binary.AppendUvarint(buf[:0], uint64(i))
			buf = append(buf, w.be...)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w.capW))
			h.Write(buf)
		}
		in.prevBEOps[i] = r.BEOps
	}
	if !inWindow {
		return
	}
	in.dec.opsAttempted += ops.frames + ops.probes + ops.pushes - in.lastOps.frames - in.lastOps.probes - in.lastOps.pushes
	in.dec.opsFailed += ops.badAcks + ops.probesFailed + ops.pushFailed - in.lastOps.badAcks - in.lastOps.probesFailed - in.lastOps.pushFailed
	// Everything a transport must not change: per-member desired state,
	// the push and solve counts, and the decision-quality accumulators.
	buf = buf[:0]
	for _, v := range []int64{
		int64(in.digest), int64(m), int64(st.Solves), int64(st.Deaths), int64(st.Rejoins),
		in.fab.pushCap.Load(), in.fab.pushAssign.Load(), ops.pushFailed,
		int64(in.dec.lagSum), int64(in.dec.lagN), int64(in.dec.sloMet), int64(in.dec.capOK),
		int64(math.Float64bits(in.dec.beOps)),
	} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	h.Write(buf)
	in.digest = h.Sum64()
	in.digests = append(in.digests, in.digest)
}
