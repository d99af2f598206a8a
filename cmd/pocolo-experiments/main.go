// Command pocolo-experiments regenerates every table and figure of the
// paper's evaluation on the simulated platform and prints them as text
// tables (or markdown with -markdown, which is how EXPERIMENTS.md data is
// produced).
//
// Usage:
//
//	pocolo-experiments [-seed N] [-dwell 5s] [-parallel N] [-only fig12,fig13] [-markdown]
//	                   [-invariants] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	                   [-trace out.jsonl] [-trace-chrome out.json] [-trace-events N]
//	                   [-budget W] [-budget-policy equal|demand] [-budget-tree spec|@file] [-budget-period 5s]
//
// With -trace the cluster runs of the selected experiments (see
// experiments.Suite for which record) write their control-loop
// decisions into shared per-host rings; the merged timeline is written as
// JSONL (and as a Perfetto-loadable Chrome trace with -trace-chrome).
// Every experiment keys its runs under a label of its own (fig14/,
// ablation-slack/slack0.05/, sensitivity-seeds/seed42/random/, …; the
// policy runs fig12, fig13 and fig15 share record once, under random/,
// pom/ and pocolo/), so any selection merges into one timeline that
// pocolo-trace -validate accepts.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pocolo/internal/cluster"
	"pocolo/internal/experiments"
	"pocolo/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pocolo-experiments: ")
	seed := flag.Int64("seed", 42, "random seed for profiling noise and placement sampling")
	dwell := flag.Duration("dwell", 5*time.Second, "simulated time per load level in cluster runs")
	par := flag.Int("parallel", 0, "worker pool size for independent simulation units (0 = GOMAXPROCS, 1 = sequential; results identical at any setting)")
	only := flag.String("only", "", "comma-separated subset, e.g. fig12,fig13 (default: all)")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored markdown instead of text tables")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	invariants := flag.Bool("invariants", false, "check cross-layer invariants on every simulated tick of every cluster run; any violation aborts the experiment")
	tracePath := flag.String("trace", "", "write the decision trace as canonical JSONL to this file")
	traceChrome := flag.String("trace-chrome", "", "write the decision trace in Chrome trace-event format (Perfetto-loadable) to this file")
	traceEvents := flag.Int("trace-events", trace.DefaultEvents, "decision-trace ring capacity per host, in events")
	budgetW := flag.Float64("budget", 0, "flat cluster power budget in watts (0 = unbudgeted) applied to every cluster run")
	budgetPolicy := flag.String("budget-policy", "equal", "flat budget division rule: equal or demand")
	budgetTree := flag.String("budget-tree", "", "hierarchical budget-tree spec or @file; leaves name the LC servers; overrides -budget")
	budgetPeriod := flag.Duration("budget-period", 5*time.Second, "budget rebalance interval")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	suite, err := experiments.NewSuite(*seed)
	if err != nil {
		log.Fatal(err)
	}
	suite.Dwell = *dwell
	suite.Parallel = *par
	suite.Invariants = *invariants
	suite.Budget, err = cluster.ParseBudgetFlags(*budgetW, *budgetPolicy, *budgetTree, *budgetPeriod, 0, 0, "")
	if err != nil {
		log.Fatal(err)
	}
	if *tracePath != "" || *traceChrome != "" {
		suite.Trace = trace.NewSet(*traceEvents)
	}

	type runner struct {
		name string
		run  func() (experiments.Table, error)
	}
	runners := []runner{
		{"table1", func() (experiments.Table, error) { return suite.TableI().Table(), nil }},
		{"table2", wrap(suite.TableII)},
		{"fig1", wrap(suite.Fig1)},
		{"fig2", wrap(suite.Fig2)},
		{"fig3", wrap(suite.Fig3)},
		{"fig4", wrap(suite.Fig4)},
		{"fig5", wrap(suite.Fig5)},
		{"fig6", wrap(suite.Fig6)},
		{"fig8", wrap(suite.Fig8)},
		{"fig9to11", wrap(suite.Fig9to11)},
		{"fig12", wrap(suite.Fig12)},
		{"fig13", wrap(suite.Fig13)},
		{"fig14", wrap(suite.Fig14)},
		{"fig15", wrap(suite.Fig15)},
		{"ablation-solvers", wrap(suite.AblationSolvers)},
		{"ablation-slack", wrap(suite.AblationSlack)},
		{"ablation-knob-order", wrap(suite.AblationKnobOrder)},
		{"ablation-myopic", wrap(suite.AblationMyopic)},
		{"ablation-profiling", wrap(suite.AblationProfiling)},
		{"ablation-sharing", wrap(suite.AblationSharing)},
		{"ablation-online", wrap(suite.AblationOnline)},
		{"validation-des", wrap(suite.ValidationDES)},
		{"ablation-scale", wrap(suite.AblationScale)},
		{"ablation-budget", wrap(suite.AblationBudget)},
		{"sensitivity-seeds", func() (experiments.Table, error) {
			res, err := suite.SeedSensitivity()
			if err != nil {
				return experiments.Table{}, err
			}
			return res.Table(), nil
		}},
	}

	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(name))] = true
		}
	}
	ran := 0
	for _, r := range runners {
		if len(want) > 0 && !want[r.name] {
			continue
		}
		tbl, err := r.run()
		if err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		if *markdown {
			fmt.Println(tbl.Markdown())
		} else {
			fmt.Println(tbl.String())
		}
		ran++
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("-memprofile: %v", err)
		}
		runtime.GC() // settle the heap so the profile reflects live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("-memprofile: %v", err)
		}
		f.Close()
	}
	if ran == 0 {
		log.Printf("no experiment matched -only=%q", *only)
		os.Exit(2)
	}
	if suite.Trace != nil {
		events := suite.Trace.Events()
		if err := trace.WriteFiles(events, *tracePath, *traceChrome); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace: %d events retained (%d dropped)\n", len(events), suite.Trace.Dropped())
	}
}

// tabler is any experiment result that renders as a table.
type tabler interface{ Table() experiments.Table }

// wrap adapts a suite method returning (result, error) into a table runner.
func wrap[T tabler](fn func() (T, error)) func() (experiments.Table, error) {
	return func() (experiments.Table, error) {
		res, err := fn()
		if err != nil {
			return experiments.Table{}, err
		}
		return res.Table(), nil
	}
}
