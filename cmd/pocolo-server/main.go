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
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pocolo/internal/machine"
	"pocolo/internal/profiler"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pocolo-server: ")
	lcName := flag.String("lc", "xapian", "latency-critical primary (img-dnn, sphinx, xapian, tpcc)")
	beNames := flag.String("be", "graph", "comma-separated best-effort co-runners (empty for none)")
	policy := flag.String("policy", "pom", "server management: pom (power-optimized) or baseline (power-unaware)")
	traceKind := flag.String("trace", "diurnal", "load trace: constant, diurnal, two-peak, sweep, step, flash, or csv:FILE")
	level := flag.Float64("level", 0.5, "load level for the constant trace")
	noise := flag.Float64("noise", 0, "relative load jitter added on top of the trace (e.g. 0.05)")
	duration := flag.Duration("duration", 4*time.Minute, "simulated run length")
	csvOut := flag.String("csv", "", "write the telemetry timeline to this CSV file")
	catalogPath := flag.String("catalog", "", "load a custom application catalog from this JSON file")
	seed := flag.Int64("seed", 42, "random seed")
	flag.Parse()

	cfg := machine.XeonE52650()
	var cat *workload.Catalog
	var err error
	if *catalogPath != "" {
		f, ferr := os.Open(*catalogPath)
		if ferr != nil {
			log.Fatal(ferr)
		}
		cat, err = workload.LoadCatalog(f, cfg)
		f.Close()
	} else {
		cat, err = workload.Defaults(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	lc, err := cat.ByName(*lcName)
	if err != nil {
		log.Fatal(err)
	}
	if lc.Class != workload.LatencyCritical {
		log.Fatalf("%s is not a latency-critical application", *lcName)
	}

	var bes []*workload.Spec
	if *beNames != "" {
		for _, name := range strings.Split(*beNames, ",") {
			be, err := cat.ByName(strings.TrimSpace(name))
			if err != nil {
				log.Fatal(err)
			}
			bes = append(bes, be)
		}
	}

	trace, err := buildTrace(*traceKind, *level, *duration)
	if err != nil {
		log.Fatal(err)
	}
	if *noise > 0 {
		trace, err = workload.NewNoisyTrace(trace, *noise, time.Second, *seed)
		if err != nil {
			log.Fatal(err)
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

	model, err := profiler.ProfileAndFit(profiler.Config{Spec: lc, Machine: cfg, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	beModels := make(map[string]*utility.Model)
	for i, be := range bes {
		m, err := profiler.ProfileAndFit(profiler.Config{Spec: be, Machine: cfg, Seed: *seed + int64(i)*101})
		if err != nil {
			log.Fatal(err)
		}
		beModels[be.Name] = m
	}

	mgmt := servermgr.PowerOptimized
	switch *policy {
	case "pom":
	case "baseline":
		mgmt = servermgr.PowerUnaware
	default:
		log.Fatalf("unknown policy %q (want pom or baseline)", *policy)
	}
	engine, err := sim.NewEngine(servermgr.CapPeriod)
	if err != nil {
		log.Fatal(err)
	}
	host, _, err := servermgr.Start(engine, hc, servermgr.Config{
		Model: model, Policy: mgmt, Seed: *seed, BEModels: beModels,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Run in chunks so an interrupt stops the simulation at the next
	// boundary instead of killing the process: metrics and the -csv
	// timeline still cover the portion that ran.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ran := runInterruptible(ctx, engine, *duration)
	if ran < *duration {
		log.Printf("interrupted after %v of %v simulated", ran, *duration)
	}

	m := host.Metrics()
	fmt.Printf("server %s under %v for %v (%s management)\n", *lcName, trace, ran, mgmt)
	fmt.Printf("  provisioned capacity:  %.0f W\n", m.ProvisionedCapW)
	fmt.Printf("  mean / peak power:     %.1f / %.1f W (%.1f%% of cap)\n", m.MeanPowerW, m.PeakPowerW, m.PowerUtil*100)
	fmt.Printf("  time over cap:         %.2f%% (%d excursions)\n", m.CapOverFrac*100, m.CapEvents)
	fmt.Printf("  energy:                %.4f kWh\n", m.EnergyKWh)
	fmt.Printf("  LC requests served:    %.0f (SLO violations %.2f%% of time, mean slack %.2f)\n", m.LCOps, m.SLOViolFrac*100, m.MeanSlack)
	if len(bes) > 0 {
		fmt.Printf("  BE work completed:     %.0f ops (mean %.1f ops/s)\n", m.BEOps, m.BEMeanThr)
		for name, ops := range m.BEOpsBy {
			fmt.Printf("    %-8s %.0f ops\n", name, ops)
		}
	}

	if *csvOut != "" {
		if err := writeTimeline(*csvOut, host); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline written to %s\n", *csvOut)
	}
}

// runInterruptible advances the engine in one-second slices until the
// full duration has run or ctx is cancelled, returning the simulated
// time actually covered.
func runInterruptible(ctx context.Context, engine *sim.Engine, duration time.Duration) time.Duration {
	const chunk = time.Second
	var ran time.Duration
	for ran < duration {
		select {
		case <-ctx.Done():
			return ran
		default:
		}
		step := chunk
		if rest := duration - ran; rest < step {
			step = rest
		}
		if err := engine.Run(step); err != nil {
			log.Fatal(err)
		}
		ran += step
	}
	return ran
}

// buildTrace constructs the requested load trace.
func buildTrace(kind string, level float64, duration time.Duration) (workload.Trace, error) {
	switch {
	case kind == "constant":
		return workload.NewConstantTrace(level)
	case kind == "diurnal":
		return workload.NewDiurnalTrace(0.1, 0.9, duration)
	case kind == "two-peak":
		return workload.NewTwoPeakTrace(0.1, 0.5, 0.9, duration)
	case kind == "sweep":
		return workload.UniformSweep(duration / 9), nil
	case kind == "step":
		return workload.NewStepTrace(0.5, 0.8, duration/2, duration)
	case kind == "flash":
		return workload.NewFlashCrowdTrace(0.2, 0.9, duration/3, duration/6, duration)
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
