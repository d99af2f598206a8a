// Command pocolo-agent runs one managed server as a network agent: the
// simulated host and its power-optimized manager advance in real time
// (or faster, with -speed) while an HTTP API lets a cluster controller
// assign best-effort work and scrape stats and Prometheus metrics.
//
// Usage:
//
//	pocolo-agent [-name agent-1] [-listen :7001] [-lc xapian] \
//	             [-be graph,lstm] [-trace diurnal] [-level 0.5] \
//	             [-noise 0] [-period 4m] [-speed 1] [-seed 42] \
//	             [-series-cap 4096] [-catalog apps.json] [-pprof :6060] \
//	             [-trace-file decisions.jsonl] [-trace-events 4096] \
//	             [-push http://127.0.0.1:7100] [-push-every 1s] \
//	             [-advertise http://127.0.0.1:7001]
//
// With -push the agent streams binary delta heartbeats to the named
// controller's POST /v1/heartbeat (see pocolo-controller -transport
// stream) instead of waiting to be polled; -advertise must match the URL
// the controller lists this agent under.
//
// Endpoints: POST /v1/assign, POST /v1/cap (the controller's per-round
// power budget push), GET /v1/stats, GET /v1/healthz, GET /metrics,
// GET /v1/trace (cursor-paginated decision trace).
// SIGINT/SIGTERM shut the agent down gracefully; with -trace-file the
// retained decision trace is dumped as JSONL on shutdown. (-trace
// selects the *load* trace; the decision-trace flags are -trace-file
// and -trace-events.) With -pprof a net/http/pprof debug server is
// exposed on a separate listener (keep it off public interfaces).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on the optional -pprof listener only
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pocolo/internal/controlplane"
	"pocolo/internal/machine"
	"pocolo/internal/profiler"
	dtrace "pocolo/internal/trace"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pocolo-agent: ")
	name := flag.String("name", "agent-1", "agent identity, unique across the cluster")
	listen := flag.String("listen", ":7001", "HTTP listen address")
	lcName := flag.String("lc", "xapian", "latency-critical primary (img-dnn, sphinx, xapian, tpcc)")
	beNames := flag.String("be", "graph,lstm", "comma-separated best-effort candidates the controller may assign")
	traceKind := flag.String("trace", "diurnal", "load trace: constant, diurnal, two-peak, sweep, step, flash, or csv:FILE")
	level := flag.Float64("level", 0.5, "load level for the constant trace")
	noise := flag.Float64("noise", 0, "relative load jitter added on top of the trace (e.g. 0.05)")
	period := flag.Duration("period", 4*time.Minute, "period of the periodic traces (diurnal, two-peak, ...)")
	speed := flag.Float64("speed", 1, "simulated seconds per wall-clock second (e.g. 60 runs a minute per second)")
	seriesCap := flag.Int("series-cap", 4096, "telemetry points retained per series (negative for unbounded)")
	catalogPath := flag.String("catalog", "", "load a custom application catalog from this JSON file")
	seed := flag.Int64("seed", 42, "random seed")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	traceFile := flag.String("trace-file", "", "dump the decision trace as JSONL to this file on shutdown")
	traceEvents := flag.Int("trace-events", 0, "decision-trace ring capacity in events (0 = default, negative disables tracing)")
	push := flag.String("push", "", "stream binary delta heartbeats to this controller base URL (e.g. http://127.0.0.1:7100); empty leaves the agent poll-only")
	pushEvery := flag.Duration("push-every", time.Second, "heartbeat push interval under -push")
	advertise := flag.String("advertise", "", "base URL this agent is known by in the controller's -agents list (default http://127.0.0.1<listen>)")
	flag.Parse()

	if err := run(agentOptions{
		name: *name, listen: *listen, lc: *lcName, be: *beNames,
		trace: *traceKind, level: *level, noise: *noise, period: *period,
		speed: *speed, seriesCap: *seriesCap, catalog: *catalogPath, seed: *seed,
		pprofAddr: *pprofAddr, traceFile: *traceFile, traceEvents: *traceEvents,
		push: *push, pushEvery: *pushEvery, advertise: *advertise,
	}); err != nil {
		log.Fatal(err)
	}
}

type agentOptions struct {
	name, listen, lc, be, trace, catalog string
	level, noise, speed                  float64
	period                               time.Duration
	seriesCap                            int
	seed                                 int64
	pprofAddr                            string
	traceFile                            string
	traceEvents                          int
	push                                 string
	pushEvery                            time.Duration
	advertise                            string
}

func run(opts agentOptions) error {
	if opts.speed <= 0 {
		return errors.New("-speed must be positive")
	}
	cfg := machine.XeonE52650()
	cat, err := loadCatalog(opts.catalog, cfg)
	if err != nil {
		return err
	}
	lc, err := cat.ByName(opts.lc)
	if err != nil {
		return err
	}
	if lc.Class != workload.LatencyCritical {
		return fmt.Errorf("%s is not a latency-critical application", opts.lc)
	}
	var bes []*workload.Spec
	if opts.be != "" {
		for _, n := range strings.Split(opts.be, ",") {
			be, err := cat.ByName(strings.TrimSpace(n))
			if err != nil {
				return err
			}
			bes = append(bes, be)
		}
	}

	loadTrace, err := buildTrace(opts.trace, opts.level, opts.period)
	if err != nil {
		return err
	}
	if opts.noise > 0 {
		loadTrace, err = workload.NewNoisyTrace(loadTrace, opts.noise, time.Second, opts.seed)
		if err != nil {
			return err
		}
	}

	log.Printf("profiling %s and %d best-effort candidates", lc.Name, len(bes))
	lcModel, err := profiler.ProfileAndFit(profiler.Config{Spec: lc, Machine: cfg, Seed: opts.seed})
	if err != nil {
		return err
	}
	beModels := make(map[string]*utility.Model, len(bes))
	for i, be := range bes {
		m, err := profiler.ProfileAndFit(profiler.Config{Spec: be, Machine: cfg, Seed: opts.seed + int64(i)*101})
		if err != nil {
			return err
		}
		beModels[be.Name] = m
	}

	simTick := 100 * time.Millisecond
	agent, err := controlplane.NewAgent(controlplane.AgentConfig{
		Name:         opts.name,
		Machine:      cfg,
		LC:           lc,
		LCModel:      lcModel,
		BECandidates: bes,
		BEModels:     beModels,
		Trace:        loadTrace,
		SimTick:      simTick,
		RealTick:     time.Duration(float64(simTick) / opts.speed),
		SeriesCap:    opts.seriesCap,
		Seed:         opts.seed,
		TraceEvents:  opts.traceEvents,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if opts.pprofAddr != "" {
		// The blank net/http/pprof import registers its handlers on the
		// default mux, which the agent's API server never serves — so the
		// profiling endpoints only exist on this dedicated listener.
		go func() {
			log.Printf("pprof listening on %s", opts.pprofAddr)
			if err := http.ListenAndServe(opts.pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	agent.Start()
	defer agent.Stop()
	if opts.push != "" {
		adv := opts.advertise
		if adv == "" {
			// A bare ":port" listen address binds every interface; advertise
			// the loopback form the controller's -agents list would use.
			if strings.HasPrefix(opts.listen, ":") {
				adv = "http://127.0.0.1" + opts.listen
			} else {
				adv = "http://" + opts.listen
			}
		}
		every := opts.pushEvery
		if every <= 0 {
			every = time.Second
		}
		go streamHeartbeats(ctx, agent, opts.name, adv, opts.push, every)
		log.Printf("streaming heartbeats to %s every %s (advertised as %s)", opts.push, every, adv)
	}
	srv := &http.Server{Addr: opts.listen, Handler: agent.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("agent %s serving %s on %s (lc=%s, candidates=%s, %gx real time)",
		opts.name, opts.trace, opts.listen, lc.Name, opts.be, opts.speed)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("signal received, shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	agent.Stop()
	st := agent.Stats()
	log.Printf("stopped after %.0f simulated seconds: lc_ops=%.0f be_ops=%.0f", st.SimSec, st.LCOps, st.BEOps)
	if opts.traceFile != "" {
		if err := dumpDecisionTrace(opts.traceFile, agent.Tracer()); err != nil {
			return fmt.Errorf("-trace-file: %w", err)
		}
	}
	return nil
}

// streamHeartbeats pushes the agent's state to the controller every
// interval as a binary heartbeat frame: a full snapshot until the first
// ack lands, compact deltas after. A transport error or a resync ack
// drops back to a full frame, so the loop self-heals across controller
// restarts; frames are best-effort and a lost one just widens the next
// delta.
func streamHeartbeats(ctx context.Context, agent *controlplane.Agent, name, advertise, controller string, every time.Duration) {
	enc := controlplane.NewHeartbeatEncoder(name, advertise)
	client := &http.Client{Timeout: every}
	base := strings.TrimSuffix(controller, "/")
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		stats, epoch := agent.StatsEpoch()
		frame, err := enc.Encode(stats, epoch)
		if err != nil {
			log.Printf("heartbeat encode: %v", err)
			continue
		}
		ack, err := controlplane.PostHeartbeat(ctx, client, base, frame)
		if err != nil {
			enc.Resync()
			log.Printf("heartbeat push: %v", err)
			continue
		}
		enc.Ack(ack)
	}
}

// dumpDecisionTrace writes the agent's retained decision trace as JSONL
// (full wire form, wall-clock timestamps included — a live agent's trace
// is not a deterministic replay artifact).
func dumpDecisionTrace(path string, tr *dtrace.Tracer) error {
	if tr == nil {
		return errors.New("decision tracing is disabled (-trace-events is negative)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	events := tr.Events()
	if err := dtrace.WriteJSONL(f, events, true); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Printf("wrote %d decision-trace events to %s (%d dropped)", len(events), path, tr.Dropped())
	return nil
}

// loadCatalog opens the application catalog (defaults when path is empty).
func loadCatalog(path string, cfg machine.Config) (*workload.Catalog, error) {
	if path == "" {
		return workload.Defaults(cfg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.LoadCatalog(f, cfg)
}

// buildTrace constructs the requested load trace; periodic traces repeat
// with the given period.
func buildTrace(kind string, level float64, period time.Duration) (workload.Trace, error) {
	switch {
	case kind == "constant":
		return workload.NewConstantTrace(level)
	case kind == "diurnal":
		return workload.NewDiurnalTrace(0.1, 0.9, period)
	case kind == "two-peak":
		return workload.NewTwoPeakTrace(0.1, 0.5, 0.9, period)
	case kind == "sweep":
		return workload.UniformSweep(period / 9), nil
	case kind == "step":
		return workload.NewStepTrace(0.5, 0.8, period/2, period)
	case kind == "flash":
		return workload.NewFlashCrowdTrace(0.2, 0.9, period/3, period/6, period)
	case strings.HasPrefix(kind, "csv:"):
		path := strings.TrimPrefix(kind, "csv:")
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.ParseCSVTrace(path, f)
	default:
		return nil, fmt.Errorf("unknown trace %q", kind)
	}
}
