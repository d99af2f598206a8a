package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pocolo/internal/controlplane"
	"pocolo/internal/machine"
	"pocolo/internal/profiler"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// member is one host of the benchmark fleet: a real controlplane.Agent or
// a synthetic stand-in. The benchmark advances it, takes the report it would
// send the controller, and reads back what the controller installed on it.
type member interface {
	advance() error
	report() (controlplane.StatsResponse, uint64)
	applied() (be string, capW float64)
	handler() http.Handler
}

// realMember adapts a controlplane.Agent: one round is one simulated
// second of its own engine, server manager and capper.
type realMember struct{ a *controlplane.Agent }

func (m realMember) advance() error                               { return m.a.Advance(time.Second) }
func (m realMember) report() (controlplane.StatsResponse, uint64) { return m.a.StatsEpoch() }
func (m realMember) applied() (string, float64)                   { return m.a.Assigned(), m.a.CapW() }
func (m realMember) handler() http.Handler                        { return m.a.Handler() }

// env is the fleet's shared catalog: the default LC and BE apps on the Xeon
// E5-2650, with models fitted once per process (seed 7, as in the stream
// demo).
type env struct {
	platform machine.Config
	lcs, bes []*workload.Spec
	models   map[string]*utility.Model
	beModels map[string]*utility.Model
}

func loadEnv() (*env, error) {
	cat := workload.MustDefaults()
	e := &env{platform: machine.XeonE52650(), lcs: cat.LC(), bes: cat.BE()}
	specs := append(append([]*workload.Spec{}, e.lcs...), e.bes...)
	models, err := profiler.FitAll(e.platform, specs, 7)
	if err != nil {
		return nil, fmt.Errorf("fitting models: %w", err)
	}
	e.models = models
	e.beModels = make(map[string]*utility.Model, len(e.bes))
	for _, be := range e.bes {
		e.beModels[be.Name] = models[be.Name]
	}
	return e, nil
}

// loadPeriod is the length of one load cycle on every member.
const loadPeriod = 20 * time.Second

// shiftedTrace offsets a load trace so the fleet does not peak in lockstep.
type shiftedTrace struct {
	workload.Trace
	offset time.Duration
}

func (s shiftedTrace) LoadFraction(t time.Duration) float64 {
	return s.Trace.LoadFraction(t + s.offset)
}

// loadPhases returns n seeded load phases in [0, 1), one per member. They
// are stratified: a seeded permutation gives each member its own 1/n slice
// of the load period, at a seeded point inside it. Which member peaks when
// depends on the seed, but the fleet's total load barely does, so
// different seeds load the controller alike.
func loadPhases(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i, slot := range rng.Perm(n) {
		out[i] = (float64(slot) + rng.Float64()) / float64(n)
	}
	return out
}

// newRealMember builds an agent the way the stream demo does, with its
// two-peak trace shifted by phase periods. Agent-side decision tracing is
// off and the telemetry series are short: neither feeds the reports the
// controller sees, and both would make the harness slower every round.
func (e *env) newRealMember(name string, lc *workload.Spec, phase float64, seed int64) (realMember, error) {
	tp, err := workload.NewTwoPeakTrace(0.3, 0.5, 0.8, loadPeriod)
	if err != nil {
		return realMember{}, err
	}
	a, err := controlplane.NewAgent(controlplane.AgentConfig{
		Name:         name,
		Machine:      e.platform,
		LC:           lc,
		LCModel:      e.models[lc.Name],
		BECandidates: e.bes,
		BEModels:     e.beModels,
		Trace:        shiftedTrace{Trace: tp, offset: time.Duration(phase * float64(loadPeriod))},
		SimTick:      100 * time.Millisecond,
		Seed:         seed,
		SeriesCap:    64,
		TraceEvents:  -1,
	})
	if err != nil {
		return realMember{}, err
	}
	return realMember{a: a}, nil
}

// templates returns one real report per LC app, taken after a few
// simulated seconds: the identity, envelope and models synthetic members
// advertise.
func (e *env) templates() (map[string]*controlplane.StatsResponse, error) {
	out := make(map[string]*controlplane.StatsResponse, len(e.lcs))
	for _, lc := range e.lcs {
		m, err := e.newRealMember("template-"+lc.Name, lc, 0, 1)
		if err != nil {
			return nil, err
		}
		for s := 0; s < 3; s++ {
			if err := m.advance(); err != nil {
				return nil, err
			}
		}
		st, _ := m.report()
		out[lc.Name] = &st
	}
	return out, nil
}

// synthMember is a cheap stand-in for an agent, used where a fleet of real
// agents would make the harness, not the controller, the cost of a round.
// It reports its LC app's template and draws power on a seeded diurnal
// curve: the LC app takes what it demands up to the installed cap, and an
// assigned BE app takes a quarter of the dynamic range from what is left.
// Its LC app meets its SLO when the cap covers the LC demand; its BE app
// does one op per watt-second it draws.
type synthMember struct {
	tmpl *controlplane.StatsResponse
	name string
	load workload.Trace

	// Written by advance and read by report, both on the round loop's side.
	simSec, lcOps, beOps, powerW, beW, slack, offered float64

	mu    sync.Mutex // pushes arrive on the controller's worker goroutines
	be    string
	capW  float64
	epoch uint64
}

func newSynthMember(name string, tmpl *controlplane.StatsResponse, phase float64) *synthMember {
	return &synthMember{
		tmpl: tmpl,
		name: name,
		load: &workload.DiurnalTrace{Low: 0.3, High: 0.8, Period: loadPeriod, PeakAt: phase},
	}
}

func (s *synthMember) advance() error {
	s.mu.Lock()
	be, capW := s.be, s.capLocked()
	s.mu.Unlock()
	s.simSec++
	idle, prov := s.tmpl.Machine.IdlePowerW, s.tmpl.ProvisionedPowerW
	frac := s.load.LoadFraction(time.Duration(s.simSec) * time.Second)
	lcDemand := idle + (prov-idle)*frac
	lcW := min(lcDemand, capW)
	s.beW = 0
	if be != "" {
		s.beW = max(0, min((prov-idle)/4, capW-lcW))
	}
	s.powerW = lcW + s.beW
	s.slack = (capW - lcDemand) / lcDemand
	s.offered = frac * s.tmpl.PeakLoad
	s.lcOps += s.offered
	s.beOps += s.beW
	return nil
}

func (s *synthMember) report() (controlplane.StatsResponse, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := *s.tmpl
	st.Agent = s.name
	st.OfferedLoad = s.offered
	st.Slack = s.slack
	st.PowerW = s.powerW
	st.CapW = s.capLocked()
	st.BEThroughput = s.beW
	st.AssignedBE = s.be
	st.LCOps = s.lcOps
	st.BEOps = s.beOps
	st.SimSec = s.simSec
	return st, s.epoch
}

func (s *synthMember) applied() (string, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.be, s.capLocked()
}

// capLocked is the cap in force: the pushed one, or provisioned power
// until a cap arrives (zero clears a pushed cap, as on an agent).
func (s *synthMember) capLocked() float64 {
	if s.capW == 0 {
		return s.tmpl.ProvisionedPowerW
	}
	return s.capW
}

func (s *synthMember) handler() http.Handler { return http.HandlerFunc(s.serve) }

// serve accepts the controller's cap and assign pushes with the agent's
// validation rules.
func (s *synthMember) serve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	switch r.URL.Path {
	case controlplane.RouteCap:
		var req controlplane.CapRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || (req.CapW != 0 && req.CapW <= s.tmpl.Machine.IdlePowerW) {
			http.Error(w, "bad cap", http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		s.capW = req.CapW
		s.mu.Unlock()
		writeReply(w, controlplane.CapResponse{Agent: s.name, CapW: req.CapW})
	case controlplane.RouteAssign:
		var req controlplane.AssignRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || !s.hosts(req.BE) {
			http.Error(w, "bad assignment", http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		if s.be != req.BE {
			s.epoch++
		}
		s.be = req.BE
		s.mu.Unlock()
		writeReply(w, controlplane.AssignResponse{Agent: s.name, AssignedBE: req.BE})
	default:
		http.NotFound(w, r)
	}
}

// hosts reports whether be ("" parks) names one of the template's BE
// candidates, or a replica of one.
func (s *synthMember) hosts(be string) bool {
	if be == "" {
		return true
	}
	if i := strings.IndexByte(be, '#'); i >= 0 {
		be = be[:i]
	}
	for _, c := range s.tmpl.BECandidates {
		if c == be {
			return true
		}
	}
	return false
}

func writeReply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// budgetTreeSpec bounds each pod of podSize members at 90% of its
// provisioned power under a datacenter root with the same margin: the
// per-pod budget tree of the stream demo.
func budgetTreeSpec(names []string, provisionedW []float64, podSize int) string {
	var total float64
	for _, w := range provisionedW {
		total += w
	}
	var b strings.Builder
	fmt.Fprintf(&b, "dc:%.0f{", total*0.9)
	for lo := 0; lo < len(names); lo += podSize {
		hi := min(lo+podSize, len(names))
		var podW float64
		for _, w := range provisionedW[lo:hi] {
			podW += w
		}
		if lo > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "pod-%d:%.0f{%s}", lo/podSize, podW*0.9, strings.Join(names[lo:hi], ","))
	}
	b.WriteByte('}')
	return b.String()
}

// fabric is the benchmark's http.RoundTripper. It routes the controller's
// probes and pushes to the members in-process, refuses requests to
// crashed members, serves poll probes from bodies the members rendered
// after their tick, and counts — and in a traced run times — every RPC
// from outside the controller.
type fabric struct {
	hosts   map[string]int // URL host → member index
	members []member
	// down and bodies are written only between rounds; the controller's
	// RPC goroutines start inside Round, after the writes.
	down   []bool
	bodies [][]byte

	probes, probesFailed, pushCap, pushAssign, pushFailed atomic.Int64

	timed bool      // traced run: record phases, service times and spans
	t0    time.Time // span clock origin

	mu         sync.Mutex
	round      int
	probePhase interval
	pushPhase  interval
	service    []float64 // push service times, µs
	keepSpans  bool
	spans      []span
}

// interval is the wall-clock extent of one RPC phase within a round.
type interval struct{ start, end time.Time }

func (iv *interval) add(start, end time.Time) {
	if iv.start.IsZero() || start.Before(iv.start) {
		iv.start = start
	}
	if end.After(iv.end) {
		iv.end = end
	}
}

func (iv interval) dur() time.Duration {
	if iv.start.IsZero() {
		return 0
	}
	return iv.end.Sub(iv.start)
}

func newFabric(urls []string, members []member) *fabric {
	f := &fabric{
		hosts:   make(map[string]int, len(urls)),
		members: members,
		down:    make([]bool, len(urls)),
		bodies:  make([][]byte, len(urls)),
	}
	for i, u := range urls {
		f.hosts[strings.TrimPrefix(u, "http://")] = i
	}
	return f
}

// beginRound resets the per-round phase extents of a traced run.
func (f *fabric) beginRound(round int) {
	f.mu.Lock()
	f.round = round
	f.probePhase, f.pushPhase = interval{}, interval{}
	f.mu.Unlock()
}

// phases returns this round's probe and push phase walls.
func (f *fabric) phases() (probe, push time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.probePhase.dur(), f.pushPhase.dur()
}

// RoundTrip implements http.RoundTripper.
func (f *fabric) RoundTrip(req *http.Request) (*http.Response, error) {
	var start time.Time
	if f.timed {
		start = time.Now()
	}
	probe := req.Method == http.MethodGet && req.URL.Path == controlplane.RouteStats
	resp, err := f.serve(req, probe)
	failed := err != nil || resp.StatusCode != http.StatusOK
	switch {
	case probe:
		f.probes.Add(1)
		if failed {
			f.probesFailed.Add(1)
		}
	case req.URL.Path == controlplane.RouteCap || req.URL.Path == controlplane.RouteAssign:
		if req.URL.Path == controlplane.RouteCap {
			f.pushCap.Add(1)
		} else {
			f.pushAssign.Add(1)
		}
		if failed {
			f.pushFailed.Add(1)
		}
	}
	if f.timed {
		f.record(probe, req.URL.Path, start, time.Now())
	}
	return resp, err
}

func (f *fabric) serve(req *http.Request, probe bool) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	i, ok := f.hosts[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("fabric: no route to %s", req.URL.Host)
	}
	if f.down[i] {
		return nil, fmt.Errorf("fabric: connect %s: connection refused", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	if probe {
		rec.Header().Set("Content-Type", "application/json")
		rec.Write(f.bodies[i])
	} else {
		f.members[i].handler().ServeHTTP(rec, req)
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

func (f *fabric) record(probe bool, path string, start, end time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name := "probe"
	if probe {
		f.probePhase.add(start, end)
	} else {
		f.pushPhase.add(start, end)
		f.service = append(f.service, float64(end.Sub(start))/1e3)
		name = "push." + strings.TrimPrefix(path, "/v1/")
	}
	if f.keepSpans {
		f.spans = append(f.spans, span{Name: name, Round: f.round, Start: start.Sub(f.t0).Nanoseconds(), End: end.Sub(f.t0).Nanoseconds(), Parent: "round"})
	}
}
