// Command pocolo-controller runs the cluster-level half of the control
// plane: it heartbeats a static set of pocolo-agent endpoints, keeps the
// best-effort placement solved on a pod-sharded assignment engine that
// it repairs in place from their reported stats and models, and pushes
// placements. Agents that miss K consecutive heartbeats are declared dead
// and their best-effort work migrates to the survivors; recovered agents
// rejoin automatically. Under polling each round probes an agent once,
// and a probe that fails or outlasts -timeout is a missed heartbeat.
// While best-effort apps outnumber live agents, the apps with the lowest
// best-case value wait unplaced.
//
// Usage:
//
//	pocolo-controller -agents http://127.0.0.1:7001,http://127.0.0.1:7002 \
//	                  [-be graph,lstm] [-listen :7100] [-heartbeat 1s] \
//	                  [-timeout 500ms] [-dead-after 3] [-max-backoff 16s] \
//	                  [-jitter 0.2] [-seed 42] \
//	                  [-budget-tree 'dc:600{agent-a,agent-b}'] \
//	                  [-trace cluster.jsonl] [-trace-events 4096] \
//	                  [-transport stream] [-pod-size 64]
//
// With -transport stream the controller stops scraping GET /v1/stats and
// instead accepts binary delta heartbeats pushed by the agents to
// POST /v1/heartbeat (run pocolo-agent with -push pointed here). Agent
// state lands in per-pod shards sized by -pod-size, decoded without a
// per-frame allocation, and each round copies out the reports that
// changed, taking each pod's lock once; see DESIGN.md §14.
// On both transports -pod-size is also the placement engine's pod size
// (DESIGN.md §13).
//
// With -budget-tree the controller enforces a hierarchical power budget
// over the fleet: the tree's leaves name the agents, every heartbeat
// round re-divides each node's budget over the agents' reported power
// draw, and the per-agent shares are pushed as power caps over
// POST /v1/cap (see DESIGN.md §12). A spec starting with '@' is read
// from the named file.
//
// With -listen set, the controller serves its own GET /v1/status (JSON),
// GET /metrics (Prometheus), and GET /v1/trace — the cluster-wide
// decision timeline, aggregated from every live agent's /v1/trace pages
// merged with the controller's own placement/migration/degradation/solve
// events. With -trace the merged timeline is also dumped as JSONL on
// shutdown. SIGINT/SIGTERM shut it down gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pocolo/internal/controlplane"
	"pocolo/internal/obs"
	"pocolo/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pocolo-controller: ")
	agents := flag.String("agents", "", "comma-separated agent base URLs (required)")
	be := flag.String("be", "graph,lstm", "comma-separated best-effort apps to keep placed")
	listen := flag.String("listen", ":7100", "HTTP listen address for /v1/status and /metrics (empty to disable)")
	heartbeat := flag.Duration("heartbeat", time.Second, "agent poll interval")
	timeout := flag.Duration("timeout", 0, "per-request timeout (default heartbeat/2)")
	deadAfter := flag.Int("dead-after", 3, "consecutive missed heartbeats before an agent is declared dead")
	maxBackoff := flag.Duration("max-backoff", 0, "probe backoff cap for dead agents (default 16x heartbeat)")
	jitter := flag.Float64("jitter", 0.2, "relative heartbeat jitter in [0, 1)")
	seed := flag.Int64("seed", 42, "random seed for the heartbeat jitter")
	budgetTree := flag.String("budget-tree", "", "hierarchical power-budget tree whose leaves name the agents (e.g. 'dc:600{agent-a,agent-b}') or @file; shares are pushed as caps every round")
	transport := flag.String("transport", controlplane.TransportPoll, "state transport: poll (controller scrapes GET /v1/stats each round) or stream (agents push binary delta heartbeats to POST /v1/heartbeat; requires -listen)")
	podSize := flag.Int("pod-size", 0, "agents per placement-engine pod, and per state shard under -transport stream (0 = default 64)")
	tracePath := flag.String("trace", "", "dump the aggregated cluster decision trace as JSONL to this file on shutdown")
	traceEvents := flag.Int("trace-events", 0, "controller decision-trace ring capacity in events (0 = default, negative disables tracing)")
	noObs := flag.Bool("no-obs", false, "disable the observability plane (round/solve/ingest histograms, SLO burn, /v1/top rollup)")
	roundDeadline := flag.Duration("round-deadline", 0, "round-latency SLO target (default heartbeat)")
	flightDir := flag.String("flight-dir", "", "arm the flight recorder: rounds past -round-deadline capture a bundle directory here")
	flag.Parse()

	var tracer *trace.Tracer
	if *traceEvents >= 0 {
		n := *traceEvents
		if n == 0 {
			n = trace.DefaultEvents
		}
		tracer = trace.New("controller", n)
	}

	spec := *budgetTree
	if strings.HasPrefix(spec, "@") {
		raw, err := os.ReadFile(spec[1:])
		if err != nil {
			log.Fatal(err)
		}
		spec = strings.TrimSpace(string(raw))
	}

	var reg *obs.Registry
	if !*noObs {
		reg = obs.NewRegistry()
	}
	var recorder *obs.FlightRecorder
	if *flightDir != "" {
		recorder = obs.NewRecorder(obs.RecorderConfig{Dir: *flightDir})
	}

	if err := run(*agents, *be, *listen, *tracePath, controlplane.ControllerConfig{
		Trace:         tracer,
		Obs:           reg,
		RoundDeadline: *roundDeadline,
		Recorder:      recorder,
		BudgetTree:    spec,
		Heartbeat:     *heartbeat,
		Timeout:       *timeout,
		DeadAfter:     *deadAfter,
		MaxBackoff:    *maxBackoff,
		Jitter:        *jitter,
		Seed:          *seed,
		Transport:     *transport,
		PodSize:       *podSize,
		Logf:          log.Printf,
	}); err != nil {
		log.Fatal(err)
	}
}

func run(agents, be, listen, tracePath string, cfg controlplane.ControllerConfig) error {
	if agents == "" {
		return errors.New("-agents is required (comma-separated base URLs)")
	}
	for _, u := range strings.Split(agents, ",") {
		cfg.AgentURLs = append(cfg.AgentURLs, strings.TrimSpace(u))
	}
	if be != "" {
		for _, n := range strings.Split(be, ",") {
			cfg.BE = append(cfg.BE, strings.TrimSpace(n))
		}
	}
	if cfg.Transport == controlplane.TransportStream && listen == "" {
		return errors.New("-transport stream needs -listen (agents push heartbeats to POST /v1/heartbeat)")
	}
	ctl, err := controlplane.NewController(cfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var srv *http.Server
	httpErr := make(chan error, 1)
	if listen != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/status", ctl.StatusHandler)
		mux.HandleFunc("/metrics", ctl.MetricsHandler)
		mux.HandleFunc(controlplane.RouteTrace, ctl.TraceHandler)
		mux.HandleFunc(controlplane.RouteTop, ctl.TopHandler)
		if cfg.Transport == controlplane.TransportStream {
			mux.HandleFunc(controlplane.RouteHeartbeat, ctl.HeartbeatHandler)
		}
		srv = &http.Server{Addr: listen, Handler: mux}
		go func() { httpErr <- srv.ListenAndServe() }()
		log.Printf("status endpoint on %s", listen)
	}
	log.Printf("controlling %d agents, placing %v", len(cfg.AgentURLs), cfg.BE)

	runErr := make(chan error, 1)
	go func() { runErr <- ctl.Run(ctx) }()

	select {
	case err := <-httpErr:
		return err
	case err := <-runErr:
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	log.Printf("signal received, shutting down")
	if srv != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
	}
	st := ctl.Status()
	log.Printf("stopped after %d rounds: %d solves, %d deaths, %d rejoins", st.Rounds, st.Solves, st.Deaths, st.Rejoins)
	if tracePath != "" {
		// Final collection sweeps any agent events recorded since the last
		// round; dead agents are skipped, so this bounds shutdown latency.
		collectCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		events := ctl.CollectTrace(collectCtx)
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := trace.WriteJSONL(f, events, true); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		log.Printf("wrote %d decision-trace events to %s", len(events), tracePath)
	}
	return nil
}
