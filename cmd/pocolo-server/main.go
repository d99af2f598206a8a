// Command pocolo-server simulates a single managed, power-capped server:
// one latency-critical primary driven by a configurable load trace, with
// optional best-effort co-runners harvesting the spare resources. It
// prints the run metrics and can dump the full telemetry timeline as CSV
// for plotting.
//
// Usage:
//
//	pocolo-server [-lc xapian] [-be graph] [-policy pom] \
//	              [-trace diurnal] [-level 0.5] [-noise 0] \
//	              [-duration 4m] [-csv timeline.csv] [-seed 42] \
//	              [-catalog apps.json]
//
// Traces: constant, diurnal, two-peak, sweep, step, flash, or csv:FILE to
// replay a two-column "seconds,load-fraction" file.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pocolo/internal/machine"
	"pocolo/internal/profiler"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pocolo-server: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command behind a testable seam: flags in, report out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pocolo-server", flag.ContinueOnError)
	lcName := fs.String("lc", "xapian", "latency-critical primary (img-dnn, sphinx, xapian, tpcc)")
	beNames := fs.String("be", "graph", "comma-separated best-effort co-runners (empty for none)")
	policy := fs.String("policy", "pom", "server management: pom (power-optimized) or baseline (power-unaware)")
	traceKind := fs.String("trace", "diurnal", "load trace: constant, diurnal, two-peak, sweep, step, flash, or csv:FILE")
	level := fs.Float64("level", 0.5, "load level for the constant trace")
	noise := fs.Float64("noise", 0, "relative load jitter added on top of the trace (e.g. 0.05)")
	duration := fs.Duration("duration", 4*time.Minute, "simulated run length")
	csvOut := fs.String("csv", "", "write the telemetry timeline to this CSV file")
	catalogPath := fs.String("catalog", "", "load a custom application catalog from this JSON file")
	seed := fs.Int64("seed", 42, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := machine.XeonE52650()
	cat, err := workload.LoadCatalogFile(*catalogPath, cfg)
	if err != nil {
		return err
	}
	lc, err := cat.ByName(*lcName)
	if err != nil {
		return err
	}
	if lc.Class != workload.LatencyCritical {
		return fmt.Errorf("%s is not a latency-critical application", *lcName)
	}

	var bes []*workload.Spec
	if *beNames != "" {
		for _, name := range strings.Split(*beNames, ",") {
			be, err := cat.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			bes = append(bes, be)
		}
	}

	trace, err := workload.NamedTrace(*traceKind, *level, *duration)
	if err != nil {
		return err
	}
	if *noise > 0 {
		trace, err = workload.NewNoisyTrace(trace, *noise, time.Second, *seed)
		if err != nil {
			return err
		}
	}

	hc := sim.HostConfig{
		Name:    *lcName,
		Machine: cfg,
		LC:      lc,
		Trace:   trace,
		Seed:    *seed,
	}
	if len(bes) > 0 {
		hc.BE = bes[0]
		hc.ExtraBE = bes[1:]
	}

	lcModels, err := profiler.FitAll(cfg, []*workload.Spec{lc}, *seed)
	if err != nil {
		return err
	}
	beModels, err := profiler.FitAll(cfg, bes, *seed)
	if err != nil {
		return err
	}

	mgmt := servermgr.PowerOptimized
	switch *policy {
	case "pom":
	case "baseline":
		mgmt = servermgr.PowerUnaware
	default:
		return fmt.Errorf("unknown policy %q (want pom or baseline)", *policy)
	}
	engine, err := sim.NewEngine(servermgr.CapPeriod)
	if err != nil {
		return err
	}
	host, _, err := servermgr.Start(engine, hc, servermgr.Config{
		Model: lcModels[lc.Name], Policy: mgmt, Seed: *seed, BEModels: beModels,
	})
	if err != nil {
		return err
	}
	// Run in chunks so an interrupt stops the simulation at the next
	// boundary instead of killing the process: metrics and the -csv
	// timeline still cover the portion that ran.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ran, err := runInterruptible(ctx, engine, *duration)
	if err != nil {
		return err
	}
	if ran < *duration {
		log.Printf("interrupted after %v of %v simulated", ran, *duration)
	}

	m := host.Metrics()
	fmt.Fprintf(out, "server %s under %v for %v (%s management)\n", *lcName, trace, ran, mgmt)
	fmt.Fprintf(out, "  provisioned capacity:  %.0f W\n", m.ProvisionedCapW)
	fmt.Fprintf(out, "  mean / peak power:     %.1f / %.1f W (%.1f%% of cap)\n", m.MeanPowerW, m.PeakPowerW, m.PowerUtil*100)
	fmt.Fprintf(out, "  time over cap:         %.2f%% (%d excursions)\n", m.CapOverFrac*100, m.CapEvents)
	fmt.Fprintf(out, "  energy:                %.4f kWh\n", m.EnergyKWh)
	fmt.Fprintf(out, "  LC requests served:    %.0f (SLO violations %.2f%% of time, mean slack %.2f)\n", m.LCOps, m.SLOViolFrac*100, m.MeanSlack)
	if len(bes) > 0 {
		fmt.Fprintf(out, "  BE work completed:     %.0f ops (mean %.1f ops/s)\n", m.BEOps, m.BEMeanThr)
		names := make([]string, 0, len(m.BEOpsBy))
		for name := range m.BEOpsBy {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, "    %-8s %.0f ops\n", name, m.BEOpsBy[name])
		}
	}

	if *csvOut != "" {
		if err := writeTimeline(*csvOut, host); err != nil {
			return err
		}
		fmt.Fprintf(out, "timeline written to %s\n", *csvOut)
	}
	return nil
}

// runInterruptible advances the engine in one-second slices until the
// full duration has run or ctx is cancelled, returning the simulated
// time actually covered.
func runInterruptible(ctx context.Context, engine *sim.Engine, duration time.Duration) (time.Duration, error) {
	const chunk = time.Second
	var ran time.Duration
	for ran < duration {
		select {
		case <-ctx.Done():
			return ran, nil
		default:
		}
		step := chunk
		if rest := duration - ran; rest < step {
			step = rest
		}
		if err := engine.Run(step); err != nil {
			return ran, err
		}
		ran += step
	}
	return ran, nil
}

// writeTimeline dumps the host's telemetry series as CSV.
func writeTimeline(path string, host *sim.Host) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write([]string{"seconds", "load_rps", "power_w", "p99_ms", "be_ops_per_s"}); err != nil {
		return err
	}
	power := host.PowerSeries().Points()
	load := host.LoadSeries().Points()
	p99 := host.P99Series().Points()
	be := host.BEThroughputSeries().Points()
	for i := range power {
		row := []string{
			strconv.FormatFloat(power[i].Time.Sub(power[0].Time).Seconds(), 'f', 1, 64),
			strconv.FormatFloat(load[i].Value, 'f', 1, 64),
			strconv.FormatFloat(power[i].Value, 'f', 2, 64),
			strconv.FormatFloat(p99[i].Value, 'f', 3, 64),
			strconv.FormatFloat(be[i].Value, 'f', 2, 64),
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	return w.Error()
}
