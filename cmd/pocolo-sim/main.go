// Command pocolo-sim runs the four-server cluster simulation under one of
// the paper's policies (random, pom, pocolo) across the uniform 10–90%
// load sweep and prints per-server and cluster-level metrics.
//
// Usage:
//
//	pocolo-sim [-policy pocolo] [-seed 42] [-dwell 5s] [-parallel N] [-models models.json] [-invariants] \
//	           [-trace out.jsonl] [-trace-chrome out.json] [-trace-events N] \
//	           [-budget W] [-budget-policy equal|demand] [-budget-tree spec|@file] [-budget-period 5s] \
//	           [-brownout 0.3] [-brownout-at 10s] [-brownout-node dc]
//
// With -budget the run divides a flat cluster power budget across the
// servers every rebalance period; -budget-tree instead enforces a
// hierarchical budget tree (host ≤ rack ≤ row ≤ DC) whose leaves name
// the LC servers, and -brownout cuts a tree node's budget mid-run to
// exercise graceful degradation.
//
// With -trace the run records every control-loop decision, capper
// intervention, placement, and solve into per-host rings and writes the
// merged timeline as canonical JSONL (wall-clock fields stripped, so two
// seeded runs produce byte-identical files). Each event's host field
// carries the call's label, e.g. run/img-dnn, run/cluster or run/budget. -trace-chrome writes the
// same timeline in Chrome trace-event format; open it in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"pocolo"
	"pocolo/internal/cluster"
	"pocolo/internal/controlplane"
	"pocolo/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pocolo-sim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command behind a testable seam: flags in, report out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pocolo-sim", flag.ContinueOnError)
	policyName := fs.String("policy", "pocolo", "cluster policy: random, pom, or pocolo")
	seed := fs.Int64("seed", 42, "random seed")
	dwell := fs.Duration("dwell", 5*time.Second, "simulated time per load level")
	par := fs.Int("parallel", 0, "worker pool size for independent hosts and trials (0 = GOMAXPROCS, 1 = sequential; results identical at any setting)")
	modelsPath := fs.String("models", "", "load fitted models from this JSON file (see pocolo-profile -o) instead of re-profiling")
	invariants := fs.Bool("invariants", false, "check cross-layer invariants (resource conservation, power-cap compliance, slack recovery, physical sanity) on every simulated tick; any violation aborts the run")
	tracePath := fs.String("trace", "", "write the decision trace as canonical JSONL to this file")
	traceChrome := fs.String("trace-chrome", "", "write the decision trace in Chrome trace-event format (Perfetto-loadable) to this file")
	traceEvents := fs.Int("trace-events", trace.DefaultEvents, "decision-trace ring capacity per host, in events")
	budgetW := fs.Float64("budget", 0, "flat cluster power budget in watts (0 = unbudgeted); divided across servers every rebalance period")
	budgetPolicy := fs.String("budget-policy", "equal", "flat budget division rule: equal or demand")
	budgetTree := fs.String("budget-tree", "", "hierarchical budget-tree spec (e.g. 'dc:1200{rack1:600{img-dnn,sphinx},rack2:600{xapian,tpcc}}') or @file; leaves name the LC servers; overrides -budget")
	budgetPeriod := fs.Duration("budget-period", 5*time.Second, "budget rebalance interval")
	brownout := fs.Float64("brownout", 0, "cut the brownout node's budget by this fraction mid-run (0.3 = -30%; needs -budget-tree)")
	brownoutAt := fs.Duration("brownout-at", 0, "simulated time of the brownout cut (default: halfway through the run)")
	brownoutNode := fs.String("brownout-node", "", "tree node to cut (default: the root)")
	hyper := fs.Int("hyperscale", 0, "run the hyperscale diurnal scenario over this many hosts instead of the four-server simulation (e.g. 10000); hosts cycle the catalog's LC classes with jittered power caps")
	hyperJobs := fs.Int("hyperscale-jobs", 0, "BE job instances in the hyperscale fleet (default: 3/4 of the hosts)")
	podSize := fs.Int("pod-size", 0, "hosts per assignment pod in the hyperscale scenario (default 64)")
	hyperRounds := fs.Int("hyperscale-rounds", 3, "churn rounds after the initial hyperscale solve")
	churn := fs.Float64("churn", 0.1, "per-round fraction of hosts whose caps drift (and per-class model re-fit probability)")
	rebalanceGap := fs.Float64("rebalance-gap", 0, "minimum estimated gain before a job migrates across pods")
	hyperBudget := fs.Float64("hyperscale-budget", 0, "size a per-pod power-budget tree at this fraction of provisioned capacity (0 = none)")
	streamDemo := fs.Int("stream-demo", 0, "run the in-process control-plane demo over this many agents instead of the simulation: catalog LC apps round-robin, one BE replica per two agents, a per-pod budget tree, and the sharded solver, all driven through live controller rounds")
	transport := fs.String("transport", "stream", "control-plane transport for -stream-demo: stream (delta heartbeats) or poll (per-round HTTP stats)")
	streamRounds := fs.Int("stream-rounds", 12, "controller rounds to run in -stream-demo")
	slowRound := fs.Int("slow-round", 0, "inject synthetic latency past the round deadline into this -stream-demo round (0 = none); with -flight-dir the breach captures exactly one flight bundle")
	flightDir := fs.String("flight-dir", "", "arm the -stream-demo flight recorder: rounds past -round-deadline capture a bundle directory here (inspect with pocolo-trace -bundle)")
	roundDeadline := fs.Duration("round-deadline", 0, "round-latency SLO target for -stream-demo (default 100ms when -flight-dir or -slow-round is set)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := cluster.ParsePolicy(*policyName)
	if err != nil {
		return err
	}

	if *streamDemo > 0 {
		return runStreamDemo(controlplane.StreamDemoConfig{
			Agents:        *streamDemo,
			Transport:     *transport,
			PodSize:       *podSize,
			Rounds:        *streamRounds,
			Seed:          *seed,
			Out:           out,
			SlowRound:     *slowRound,
			FlightDir:     *flightDir,
			RoundDeadline: *roundDeadline,
		})
	}

	var sys *pocolo.System
	if *modelsPath != "" {
		f, ferr := os.Open(*modelsPath)
		if ferr != nil {
			return ferr
		}
		models, merr := pocolo.LoadModels(f)
		f.Close()
		if merr != nil {
			return merr
		}
		sys, err = pocolo.NewSystemFromModels(pocolo.XeonE52650(), models, *seed)
	} else {
		sys, err = pocolo.NewSystem(*seed)
	}
	if err != nil {
		return err
	}
	sys.Dwell = *dwell
	sys.Parallel = *par
	sys.Invariants = *invariants
	if *tracePath != "" || *traceChrome != "" {
		sys.Trace = trace.NewSet(*traceEvents)
	}
	sys.Budget, err = pocolo.ParseBudgetFlags(*budgetW, *budgetPolicy, *budgetTree, *budgetPeriod, *brownout, *brownoutAt, *brownoutNode)
	if err != nil {
		return err
	}

	if *hyper > 0 {
		jobs := *hyperJobs
		if jobs == 0 {
			jobs = *hyper * 3 / 4
		}
		hres, herr := sys.RunHyperscale(pocolo.HyperscaleConfig{
			Fleet: pocolo.FleetConfig{
				Hosts: *hyper,
				Jobs:  jobs,
				Shard: pocolo.ShardSettings{
					PodSize:      *podSize,
					RebalanceGap: *rebalanceGap,
				},
				BudgetFrac: *hyperBudget,
			},
			Rounds: *hyperRounds,
			Churn:  *churn,
		})
		if herr != nil {
			return herr
		}
		printHyperscale(out, hres)
		return writeTraces(sys, out, *tracePath, *traceChrome)
	}

	res, err := sys.Run(policy)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "policy: %s\n", res.Policy)
	if len(res.Placement) > 0 {
		fmt.Fprintln(out, "placement:")
		bes := make([]string, 0, len(res.Placement))
		for be := range res.Placement {
			bes = append(bes, be)
		}
		sort.Strings(bes)
		for _, be := range bes {
			fmt.Fprintf(out, "  %-6s -> %s\n", be, res.Placement[be])
		}
	} else {
		fmt.Fprintf(out, "placement: expectation over sampled random permutations\n")
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-8s  %12s  %12s  %10s  %10s  %10s\n",
		"server", "BE thr", "power (W)", "power/cap", "SLO viol", "energy kWh")
	names := make([]string, 0, len(res.Hosts))
	for n := range res.Hosts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Hosts[n]
		fmt.Fprintf(out, "%-8s  %12.1f  %12.1f  %9.1f%%  %9.1f%%  %10.4f\n",
			n, m.BEMeanThr, m.MeanPowerW, m.PowerUtil*100, m.SLOViolFrac*100, m.EnergyKWh)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "cluster BE throughput (normalized): %.3f\n", res.BENormThroughput)
	fmt.Fprintf(out, "cluster mean power utilization:     %.1f%%\n", res.MeanPowerUtil*100)
	fmt.Fprintf(out, "cluster energy:                     %.4f kWh\n", res.TotalEnergyKWh)
	fmt.Fprintf(out, "worst SLO violation fraction:       %.2f%%\n", res.SLOViolFrac*100)

	if res.Budget != nil {
		fmt.Fprintln(out)
		fmt.Fprintf(out, "budget: %d rebalances, %d cuts\n", res.Budget.Rebalances, res.Budget.Cuts)
		shares := make([]string, 0, len(res.Budget.Shares))
		for name := range res.Budget.Shares {
			shares = append(shares, name)
		}
		sort.Strings(shares)
		var sum float64
		for _, name := range shares {
			fmt.Fprintf(out, "  %-8s %8.1f W\n", name, res.Budget.Shares[name])
			sum += res.Budget.Shares[name]
		}
		fmt.Fprintf(out, "  %-8s %8.1f W\n", "total", sum)
		if len(res.Budget.NodeBudgets) > 0 {
			nodes := make([]string, 0, len(res.Budget.NodeBudgets))
			for name := range res.Budget.NodeBudgets {
				nodes = append(nodes, name)
			}
			sort.Strings(nodes)
			fmt.Fprintln(out, "  node budgets:")
			for _, name := range nodes {
				fmt.Fprintf(out, "    %-8s %8.1f W\n", name, res.Budget.NodeBudgets[name])
			}
		}
	}

	return writeTraces(sys, out, *tracePath, *traceChrome)
}

// runStreamDemo drives the in-process control-plane demo and prints each
// round's decisions followed by a summary. The decision lines are
// transport-neutral: a stream run and a poll run with the same seed print
// identical decisions, which CI verifies by diffing the two outputs. With
// -slow-round and -flight-dir, the injected breach of the round deadline
// captures a flight bundle under the given directory.
func runStreamDemo(cfg controlplane.StreamDemoConfig) error {
	report, err := controlplane.RunStreamDemo(context.Background(), cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "demo: %d agents, %d rounds, %d placed, %d deaths, %d rejoins\n",
		cfg.Agents, report.Rounds, len(report.Status.Placement), report.Deaths, report.Rejoins)
	return report.Err()
}

// writeTraces flushes the system's decision trace to the requested files and
// reports retention; a no-op when tracing is off.
func writeTraces(sys *pocolo.System, out io.Writer, tracePath, traceChrome string) error {
	if sys.Trace == nil {
		return nil
	}
	events := sys.Trace.Events()
	if err := trace.WriteFiles(events, tracePath, traceChrome); err != nil {
		return err
	}
	fmt.Fprintf(out, "\ntrace: %d events retained (%d dropped)\n", len(events), sys.Trace.Dropped())
	return nil
}

// printHyperscale renders the hyperscale scenario summary: fleet shape,
// the per-round churn/refresh/migration table, and pod budgets if sized.
func printHyperscale(out io.Writer, res pocolo.HyperscaleResult) {
	fmt.Fprintf(out, "hyperscale: %d hosts, %d jobs, %d pods\n", res.Hosts, res.Jobs, res.Pods)
	fmt.Fprintf(out, "initial placement value: %.1f\n", res.InitialTotal)
	if len(res.Rounds) > 0 {
		fmt.Fprintln(out)
		fmt.Fprintf(out, "%-6s  %12s  %8s  %8s  %10s  %10s  %8s\n",
			"round", "value", "hosts Δ", "models Δ", "recomputed", "reused", "moves")
		for _, r := range res.Rounds {
			fmt.Fprintf(out, "%-6d  %12.1f  %8d  %8d  %10d  %10d  %8d\n",
				r.Round, r.Total, r.HostsChanged, r.ClassesChanged,
				r.Refresh.CellsComputed, r.Refresh.CellsReused, r.Moves)
		}
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "final placement value: %.1f (%d migrations over %d rounds)\n",
		res.FinalTotal, res.Moves, len(res.Rounds))
	if res.BudgetSpec != "" {
		pods := make([]string, 0, len(res.PodBudgets))
		for name := range res.PodBudgets {
			pods = append(pods, name)
		}
		sort.Strings(pods)
		var sum float64
		fmt.Fprintln(out, "pod budgets:")
		for _, name := range pods {
			fmt.Fprintf(out, "  %-10s %10.0f W\n", name, res.PodBudgets[name])
			sum += res.PodBudgets[name]
		}
		fmt.Fprintf(out, "  %-10s %10.0f W\n", "total", sum)
	}
}
