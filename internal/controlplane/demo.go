package controlplane

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"pocolo/internal/cluster"
	"pocolo/internal/machine"
	"pocolo/internal/obs"
	"pocolo/internal/profiler"
	"pocolo/internal/trace"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// StreamDemoConfig sizes an in-process demo cluster: N agents hosting
// the default catalog's LC apps round-robin, one best-effort replica per
// two agents, a per-pod power-budget tree, and the sharded solver —
// every subsystem of the control plane live in one process, under
// either transport.
type StreamDemoConfig struct {
	// Agents is the fleet size (default 64).
	Agents int
	// Transport is TransportStream (default) or TransportPoll.
	Transport string
	// PodSize is the shard/pod size and the budget tree's pod size
	// (default cluster.DefaultPodSize).
	PodSize int
	// Rounds is how many controller rounds to run (default 12).
	Rounds int
	// Seed drives every stochastic input (default 1).
	Seed int64
	// Out, when non-nil, receives one block of decision lines per round —
	// placement, caps, and liveness counters in a transport-neutral,
	// deterministic format, so diffing a stream run against a poll run
	// proves the transports decide identically.
	Out io.Writer
	// Obs, when non-nil, wires the demo controller's observability plane.
	// NewStreamDemo creates one implicitly when FlightDir is set, so
	// bundle captures always carry a metrics snapshot.
	Obs *obs.Registry
	// SlowRound, when positive, injects RoundDeadline+50ms of synthetic
	// latency into that round's measured duration (nothing sleeps — the
	// duration is fabricated, so seeded runs reproduce the slow round
	// byte-for-byte). Requires FlightDir to be observable.
	SlowRound int
	// RoundDeadline is the per-round latency SLO (default 100ms when
	// FlightDir or SlowRound is set; otherwise the controller default).
	RoundDeadline time.Duration
	// FlightDir, when non-empty, arms the flight recorder: any round
	// measured past RoundDeadline captures a bundle directory under it.
	FlightDir string
}

// RunStreamDemo builds the demo cluster and drives it through a
// faultless campaign: agents advance simulated time in lockstep, state
// flows over the configured transport, the sharded solver places one
// best-effort replica per two agents, and the budget tree re-divides a
// 90%-of-provisioned power budget every round. It returns the campaign
// report; report.Err() is nil on a fully converged run.
func RunStreamDemo(ctx context.Context, cfg StreamDemoConfig) (*CampaignReport, error) {
	camp, err := NewStreamDemo(cfg)
	if err != nil {
		return nil, err
	}
	return camp.Run(ctx)
}

// NewStreamDemo builds the demo campaign without running it, so callers
// (pocolo-top, tests) can reach the live controller via camp.Controller()
// while driving rounds themselves.
func NewStreamDemo(cfg StreamDemoConfig) (*Campaign, error) {
	if cfg.Agents <= 0 {
		cfg.Agents = 64
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 12
	}
	if cfg.Transport == "" {
		cfg.Transport = TransportStream
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.PodSize == 0 {
		cfg.PodSize = cluster.DefaultPodSize
	}
	if cfg.PodSize < 0 {
		return nil, errors.New("controlplane: pod size must be at least 1")
	}
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}

	cat := workload.MustDefaults()
	lcs, bes := cat.LC(), cat.BE()
	platform := machine.XeonE52650()
	specs := append(append([]*workload.Spec{}, lcs...), bes...)
	models, err := profiler.FitAll(platform, specs, 7)
	if err != nil {
		return nil, fmt.Errorf("controlplane: fitting demo models: %w", err)
	}

	beModels := make(map[string]*utility.Model, len(bes))
	for _, be := range bes {
		beModels[be.Name] = models[be.Name]
	}
	agents := make([]AgentConfig, cfg.Agents)
	var provisioned float64
	for i := range agents {
		lc := lcs[i%len(lcs)]
		tr, err := workload.NewTwoPeakTrace(0.3, 0.5, 0.8, 20*time.Second)
		if err != nil {
			return nil, err
		}
		agents[i] = AgentConfig{
			Name:         fmt.Sprintf("agent-%04d", i),
			Machine:      platform,
			LC:           lc,
			LCModel:      models[lc.Name],
			BECandidates: bes,
			BEModels:     beModels,
			Trace:        tr,
			SimTick:      100 * time.Millisecond,
			Seed:         cfg.Seed + int64(i),
		}
		provisioned += lc.ProvisionedPowerW
	}

	// One best-effort replica per two agents: enough work that placement
	// is a real assignment problem, enough slack that every replica finds
	// a host.
	beNames := make([]string, cfg.Agents/2)
	for i := range beNames {
		beNames[i] = fmt.Sprintf("%s#%d", bes[i%len(bes)].Name, i/len(bes))
	}

	// The flight-recorder path needs a metrics registry (bundles embed an
	// obs snapshot), a round deadline to breach, and a controller tracer
	// so the bundle's event log is non-empty.
	reg := cfg.Obs
	var recorder *obs.FlightRecorder
	var ctlTrace *trace.Tracer
	var inject func(round int) time.Duration
	deadline := cfg.RoundDeadline
	if cfg.FlightDir != "" || cfg.SlowRound > 0 {
		if deadline <= 0 {
			deadline = 100 * time.Millisecond
		}
		if reg == nil {
			reg = obs.NewRegistry()
		}
	}
	if cfg.FlightDir != "" {
		recorder = obs.NewRecorder(cfg.FlightDir)
		ctlTrace = trace.New("controller", 4096)
	}
	if cfg.SlowRound > 0 {
		slow, extra := cfg.SlowRound, deadline+50*time.Millisecond
		inject = func(round int) time.Duration {
			if round == slow {
				return extra
			}
			return 0
		}
	}

	return NewCampaign(CampaignConfig{
		ControllerConfig: ControllerConfig{
			BE:                 beNames,
			BudgetTree:         demoBudgetTree(agents, cfg.PodSize, provisioned),
			Heartbeat:          time.Second,
			DeadAfter:          2,
			Transport:          cfg.Transport,
			PodSize:            cfg.PodSize,
			Seed:               cfg.Seed,
			Trace:              ctlTrace,
			Obs:                reg,
			RoundDeadline:      deadline,
			Recorder:           recorder,
			InjectRoundLatency: inject,
		},
		Agents:   agents,
		Duration: time.Duration(cfg.Rounds) * time.Second,
		OnRound: func(round int, st Status) {
			writeDemoRound(out, round, st)
		},
	})
}

// demoBudgetTree builds a per-pod budget tree spec over the demo agents:
// one internal node per pod of podSize agents, each bounding its pod at
// 90% of provisioned capacity, under a datacenter root. Pod boundaries
// match the sharded solver's contiguous pods, so budget domains and
// solve domains align the way racks align with pods in the paper's
// setting.
func demoBudgetTree(agents []AgentConfig, podSize int, provisionedW float64) string {
	perAgent := provisionedW / float64(len(agents))
	var b strings.Builder
	fmt.Fprintf(&b, "dc:%.0f{", provisionedW*0.9)
	for p := 0; p*podSize < len(agents); p++ {
		lo, hi := p*podSize, (p+1)*podSize
		if hi > len(agents) {
			hi = len(agents)
		}
		if p > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "pod-%d:%.0f{", p, perAgent*float64(hi-lo)*0.9)
		for i := lo; i < hi; i++ {
			if i > lo {
				b.WriteByte(',')
			}
			b.WriteString(agents[i].Name)
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
	return b.String()
}

// writeDemoRound renders one round's decisions in a transport-neutral,
// deterministic format: counters, then the placement sorted by
// best-effort name, then the installed caps sorted by agent. Two runs
// that decide identically produce identical bytes.
func writeDemoRound(w io.Writer, round int, st Status) {
	alive := 0
	for _, a := range st.Agents {
		if a.Alive {
			alive++
		}
	}
	fmt.Fprintf(w, "round=%d alive=%d placed=%d unplaced=%d degraded=%t deaths=%d rejoins=%d\n",
		round, alive, len(st.Placement), len(st.Unplaced), st.Degraded, st.Deaths, st.Rejoins)
	for _, be := range sortedKeys(st.Placement) {
		fmt.Fprintf(w, "  place %s -> %s\n", be, st.Placement[be])
	}
	if st.Budget != nil {
		shares := make([]string, 0, len(st.Budget.Shares))
		for name := range st.Budget.Shares {
			shares = append(shares, name)
		}
		sort.Strings(shares)
		for _, name := range shares {
			fmt.Fprintf(w, "  cap %s = %.3f\n", name, st.Budget.Shares[name])
		}
	}
}
