// Command fleetbench is Pocolo's fleet-round benchmark. One goroutine
// stands up a fleet in-process and runs the real controlplane.Controller
// against it in closed-loop lockstep: every round advances each running
// agent one simulated second, delivers one report per agent (a heartbeat
// frame through IngestBatch, or a /v1/stats body a poll probe fetches),
// and calls Controller.Round once. The next round starts when this one
// ends.
//
//	go run . -workload steady-1k -seed 1 -seconds 10 -trace 0
//
// It prints one "workload metric value unit" line per metric and, last, a
// JSON object with the same metrics. -trace 0 reports the end-to-end
// metrics, -trace 1 the per-layer ones. The exit code is non-zero when a
// correctness check fails. README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"pocolo/internal/controlplane"
	"pocolo/internal/obs"
)

func main() {
	ok, err := run(context.Background(), os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// options are the settings shared by every workload of one invocation.
type options struct {
	seed   int64
	dur    time.Duration
	traced bool
	spans  string
}

// setupReps is how many times an untraced run sets up; it reports the
// median.
const setupReps = 3

func run(ctx context.Context, args []string, stdout io.Writer) (bool, error) {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: steady-1k, churn-1k, poll-1k, scale-4k, or all")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "minimum measured wall time per workload, in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spans := fs.String("spans", "", "traced run: write the spans of one workload to this file as JSON Lines")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *traced != 0 && *traced != 1 {
		return false, fmt.Errorf("-trace must be 0 or 1, not %d", *traced)
	}
	if *seconds < 0 {
		return false, errors.New("-seconds must not be negative")
	}
	var ws []workloadSpec
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		return false, fmt.Errorf("unknown workload %q", *name)
	}
	if *spans != "" && (len(ws) > 1 || *traced == 0) {
		return false, errors.New("-spans needs -trace 1 and a single workload")
	}
	opt := options{
		seed:   *seed,
		dur:    time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1,
		spans:  *spans,
	}

	var results []*result
	for _, w := range ws {
		r, err := runWorkload(ctx, w, opt)
		if err == nil && w.transport == controlplane.TransportPoll {
			err = checkTransport(ctx, w, opt.seed, r, stdout)
		}
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		r.print(stdout)
		results = append(results, r)
	}
	return report(results, stdout)
}

// result is one workload's outcome.
type result struct {
	name     string
	note     string // how the workload ran
	metrics  []metric
	rounds   int // measured rounds, every phase
	failed   int // measured rounds that failed the correctness gate
	failures []string
	digests  []uint64
}

type metric struct {
	name  string
	value float64
	unit  string
}

// runWorkload sets up and measures one workload. An untraced run sets up
// setupReps times, reports the median set-up, and measures the last fleet.
// A traced run measures an untraced fleet briefly (the tracing-overhead
// baseline), then a traced one at GOMAXPROCS=nproc and at 1.
func runWorkload(ctx context.Context, w workloadSpec, opt options) (*result, error) {
	r := &result{name: w.name}
	procs := runtime.GOMAXPROCS(0)
	if !opt.traced {
		var setups []float64
		var in *instance
		for k := 0; k < setupReps; k++ {
			in = nil // let the previous fleet go before building the next
			t := time.Now()
			var err error
			if in, err = newInstance(ctx, w, opt.seed, false); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t).Seconds()*in.setupSpeed)
		}
		p, err := in.measure(ctx, w.rounds, opt.dur)
		if err != nil {
			return nil, err
		}
		r.add(p)
		r.digests = in.digests
		r.metrics = endToEnd(setups, p, in.dec)
		r.note = fmt.Sprintf("agents=%d transport=%s gomaxprocs=%d seed=%d setups=%.3f measured_rounds=%d decision_rounds=%d",
			w.agents, w.transport, procs, opt.seed, setups, len(p.rounds), min(len(p.rounds), w.rounds))
		return r, nil
	}

	base, err := newInstance(ctx, w, opt.seed, false)
	if err != nil {
		return nil, err
	}
	short := min(w.rounds, 40)
	pu, err := base.measure(ctx, short, opt.dur/4)
	if err != nil {
		return nil, err
	}
	r.add(pu)

	in, err := newInstance(ctx, w, opt.seed, true)
	if err != nil {
		return nil, err
	}
	in.fab.keepSpans = opt.spans != ""
	p1, err := in.measure(ctx, w.rounds, opt.dur/2)
	if err != nil {
		return nil, err
	}
	r.add(p1)
	if opt.spans != "" {
		if err := writeSpans(opt.spans, in.fab.spans); err != nil {
			return nil, err
		}
		in.fab.keepSpans, in.fab.spans = false, nil
	}
	runtime.GOMAXPROCS(1)
	one, err := in.measure(ctx, short, opt.dur/4)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, err
	}
	r.add(one)
	r.digests = in.digests
	r.metrics = perLayer(pu, p1, one)
	r.note = fmt.Sprintf("agents=%d transport=%s gomaxprocs=%d seed=%d untraced_rounds=%d traced_rounds=%d procs1_rounds=%d",
		w.agents, w.transport, procs, opt.seed, len(pu.rounds), len(p1.rounds), len(one.rounds))
	return r, nil
}

func (r *result) add(p *phase) {
	r.rounds += len(p.rounds)
	r.failed += p.failedRounds
	r.failures = append(r.failures, p.failures...)
}

// phase is one measured stretch of rounds on one instance.
type phase struct {
	rounds       []roundSample
	failedRounds int
	failures     []string  // the first few gate messages
	service      []float64 // push service times, µs
	start, end   counters
}

// A pick selects one duration of a round, and whether the round has it.
type pick func(r *roundSample) (time.Duration, bool)

func every(f func(r *roundSample) time.Duration) pick {
	return func(r *roundSample) (time.Duration, bool) { return f(r), true }
}

var (
	advanceOf = every(func(r *roundSample) time.Duration { return r.advance })
	ingestOf  = every(func(r *roundSample) time.Duration { return r.ingest })
	roundOf   = every(func(r *roundSample) time.Duration { return r.round })
	callsOf   = every(func(r *roundSample) time.Duration { return r.ingest + r.round })
	cpuOf     = every(func(r *roundSample) time.Duration { return r.cpu })
	probeOf   = every(func(r *roundSample) time.Duration { return r.probe })
	pushOf    = every(func(r *roundSample) time.Duration { return r.push })
	selfOf    = every(func(r *roundSample) time.Duration { return selfTime(r.round, r.probe, r.budget, r.push) })
	resolveOf = pick(func(r *roundSample) (time.Duration, bool) { return r.round, r.resolved })
	steadyOf  = pick(func(r *roundSample) (time.Duration, bool) { return r.round, !r.resolved })
)

// ms lists a duration of every round that has it, in reference
// milliseconds.
func (p *phase) ms(d pick) []float64 { return p.series(d, true) }

// rawMs is ms in wall milliseconds. The probe's run time depends on
// GOMAXPROCS, so only wall times compare across GOMAXPROCS settings.
func (p *phase) rawMs(d pick) []float64 { return p.series(d, false) }

func (p *phase) series(d pick, ref bool) []float64 {
	out := make([]float64, 0, len(p.rounds))
	for i := range p.rounds {
		r := &p.rounds[i]
		if v, ok := d(r); ok {
			ms := float64(v) / 1e6
			if ref {
				ms *= r.speed
			}
			out = append(out, ms)
		}
	}
	return out
}

// counters is a snapshot of everything the program counts.
type counters struct {
	stream                                               controlplane.StreamStats
	probesFailed, pushCap, pushAssign, pushFailed, cells int64
	cellsReused                                          int64
	solves, rebalances                                   int
	decode, budget, solve                                obs.HistogramSnapshot
}

func (in *instance) counters() counters {
	st := in.ctl.Status()
	c := counters{
		stream:       in.ctl.StreamStats(),
		probesFailed: in.fab.probesFailed.Load(),
		pushCap:      in.fab.pushCap.Load(),
		pushAssign:   in.fab.pushAssign.Load(),
		pushFailed:   in.fab.pushFailed.Load(),
		cells:        in.cellsDone,
		cellsReused:  in.cellsReused,
		solves:       st.Solves,
	}
	if st.Budget != nil {
		c.rebalances = st.Budget.Rebalances
	}
	if in.reg != nil {
		snap := in.reg.Snapshot()
		c.decode = histogram(snap, decodeHist)
		c.budget = histogram(snap, budgetHist)
		c.solve = histogram(snap, solveHist)
	}
	return c
}

// maxFailures bounds the gate messages a phase keeps.
const maxFailures = 5

// measure runs rounds until it has at least minRounds and minDur of them.
func (in *instance) measure(ctx context.Context, minRounds int, minDur time.Duration) (*phase, error) {
	// The collector stays off between rounds too: step collects the heap
	// before each round's controller calls, and a cycle started by the
	// untimed harness work would only repeat that collection.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := &phase{start: in.counters()}
	in.fab.mu.Lock()
	in.fab.service = in.fab.service[:0]
	in.fab.mu.Unlock()
	begin := time.Now()
	for len(p.rounds) < minRounds || time.Since(begin) < minDur {
		rs, err := in.step(ctx)
		if err != nil {
			return nil, err
		}
		if len(rs.failures) > 0 {
			p.failedRounds++
			for _, f := range rs.failures {
				if len(p.failures) < maxFailures {
					p.failures = append(p.failures, fmt.Sprintf("round %d: %s", in.m-1, f))
				}
			}
			rs.failures = nil
		}
		p.rounds = append(p.rounds, rs)
	}
	p.end = in.counters()
	in.fab.mu.Lock()
	p.service = append([]float64(nil), in.fab.service...)
	in.fab.mu.Unlock()
	return p, nil
}

// endToEnd derives the metrics a user of the controller sees.
func endToEnd(setups []float64, p *phase, d decisions) []metric {
	n := float64(len(p.rounds))
	var allocKB float64
	for _, r := range p.rounds {
		allocKB += float64(r.alloc) / 1024
	}
	return []metric{
		{"setup_s", median(setups), "s"},
		{"round_ms_p50", median(p.ms(roundOf)), "ms"},
		{"round_ms_p95", quantile(p.ms(roundOf), 0.95), "ms"},
		{"ctl_cpu_ms_per_round", sum(p.ms(cpuOf)) / n, "ms"},
		{"ctl_alloc_kb_per_round", allocKB / n, "KiB"},
		{"decision_lag_rounds", ratio(float64(d.lagSum), float64(d.lagN)), "rounds"},
		{"ops_ok_pct", 100 - 100*ratio(float64(d.opsFailed), float64(d.opsAttempted)), "%"},
		{"be_ops_per_agent_s", ratio(d.beOps, float64(d.liveRounds)), "ops/s"},
		{"lc_slo_met_pct", 100 * ratio(float64(d.sloMet), float64(d.liveRounds)), "%"},
		{"cap_ok_pct", 100 * ratio(float64(d.capOK), float64(d.liveRounds)), "%"},
	}
}

// perLayer derives the per-layer metrics of a traced run from the traced
// phase p, the untraced baseline base, and the GOMAXPROCS=1 phase one.
func perLayer(base, p, one *phase) []metric {
	n := float64(len(p.rounds))
	perRound := func(a, b int64) float64 { return float64(a-b) / n }
	s, e := p.start, p.end
	cellsDone, cellsReused := e.cells-s.cells, e.cellsReused-s.cellsReused
	var reports, bytes int64
	var allocKB float64
	encodeUs := make([]float64, 0, len(p.rounds))
	for _, r := range p.rounds {
		reports += int64(r.reports)
		bytes += r.bytes
		allocKB += float64(r.roundAlloc) / 1024
		encodeUs = append(encodeUs, ratio(float64(r.encode)*r.speed/1e3, float64(r.reports)))
	}
	speedup := func(d pick) float64 {
		return ratio(median(one.rawMs(d)), median(p.rawMs(d)))
	}
	return []metric{
		{"agent.advance_ms", median(p.ms(advanceOf)), "ms"},
		{"codec.encode_us", median(encodeUs), "us"},
		{"codec.frame_bytes", ratio(float64(bytes), float64(reports)), "B"},
		{"codec.decode_us_p50", histDelta(e.decode, s.decode).Quantile(0.5) * 1e6, "us"},
		{"codec.full_frames", perRound(e.stream.Fulls, s.stream.Fulls), "count/round"},
		{"stream.resyncs", perRound(e.stream.Resyncs, s.stream.Resyncs), "count/round"},
		{"stream.ingest_ms", median(p.ms(ingestOf)), "ms"},
		{"poll.probe_ms", median(p.ms(probeOf)), "ms"},
		{"poll.probes_failed", perRound(e.probesFailed, s.probesFailed), "count/round"},
		{"budget.rebalance_ms_p50", histDelta(e.budget, s.budget).Quantile(0.5) * 1e3, "ms"},
		{"budget.rebalances", perRound(int64(e.rebalances), int64(s.rebalances)), "count/round"},
		{"push.cap", perRound(e.pushCap, s.pushCap), "count/round"},
		{"push.assign", perRound(e.pushAssign, s.pushAssign), "count/round"},
		{"push.phase_ms", median(p.ms(pushOf)), "ms"},
		{"push.service_us_p50", median(p.service), "us"},
		{"push.failed", perRound(e.pushFailed, s.pushFailed), "count/round"},
		{"cluster.resolves", perRound(int64(e.solves), int64(s.solves)), "count/round"},
		{"cluster.pod_solve_ms", histDelta(e.solve, s.solve).Quantile(0.5) * 1e3, "ms"},
		{"cluster.cells_computed", float64(cellsDone) / n, "count/round"},
		{"cluster.cells_reused", float64(cellsReused) / n, "count/round"},
		{"cluster.memo_hit_pct", 100 * ratio(float64(cellsReused), float64(cellsDone+cellsReused)), "%"},
		{"controller.round_ms_resolve", median(p.ms(resolveOf)), "ms"},
		{"controller.round_ms_steady", median(p.ms(steadyOf)), "ms"},
		{"controller.self_ms", median(p.ms(selfOf)), "ms"},
		{"controller.alloc_kb", allocKB / n, "KiB"},
		{"controller.parallelism", ratio(sum(p.ms(cpuOf)), sum(p.ms(callsOf))), "x"},
		{"obs.overhead_pct", 100 * (ratio(median(p.ms(roundOf)), median(base.ms(roundOf))) - 1), "%"},
		{"stream.ingest_ms.speedup", speedup(ingestOf), "x"},
		{"push.phase_ms.speedup", speedup(pushOf), "x"},
		{"controller.round_ms_resolve.speedup", speedup(resolveOf), "x"},
	}
}

// contractRounds is how many rounds of a polled workload the transport
// contract compares against the same fleet streaming.
const contractRounds = 20

// checkTransport is the transport contract at fleet scale. After a polled
// workload it sets up the same fleet on the stream transport, untimed, and
// runs it for contractRounds rounds: polling must decide exactly what
// streaming decides, round by round.
func checkTransport(ctx context.Context, w workloadSpec, seed int64, r *result, out io.Writer) error {
	twin := w
	twin.transport = controlplane.TransportStream
	in, err := newInstance(ctx, twin, seed, false)
	if err != nil {
		return fmt.Errorf("stream twin: %w", err)
	}
	for len(in.digests) < min(contractRounds, w.rounds) {
		if _, err := in.step(ctx); err != nil {
			return fmt.Errorf("stream twin: %w", err)
		}
	}
	compareDigests(r, in.digests, out)
	return nil
}

// compareDigests checks r's decisions against a stream run's over their
// common window; the chained digest covers every earlier round too.
func compareDigests(r *result, stream []uint64, out io.Writer) {
	k := min(len(stream), len(r.digests)) - 1
	if k >= 0 && stream[k] == r.digests[k] {
		fmt.Fprintf(out, "# transport contract: %s decides as the stream transport over %d rounds\n", r.name, k+1)
		return
	}
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf("transport contract: poll and stream decisions differ within %d rounds", k+1))
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "# %s %s\n", r.name, r.note)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.name, m.name, m.value, m.unit)
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every failure and, last, the JSON result line. With more
// than one workload the metric names carry the workload as a prefix.
func report(results []*result, w io.Writer) (bool, error) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Metrics: make(map[string]metricJSON)}
	for _, r := range results {
		for _, f := range r.failures {
			fmt.Fprintf(w, "# %s FAIL %s\n", r.name, f)
		}
		out.Attempted += r.rounds
		out.Failed += r.failed
		for _, m := range r.metrics {
			key := m.name
			if len(results) > 1 {
				key = r.name + "." + m.name
			}
			out.Metrics[key] = metricJSON{Value: m.value, Unit: m.unit}
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return out.Correct, nil
}

// span is one traced call: a harness call at the top level, or an RPC
// whose parent is the round that issued it. Spans share the round number.
type span struct {
	Name   string `json:"name"`
	Round  int    `json:"round"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
