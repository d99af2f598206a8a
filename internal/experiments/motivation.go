package experiments

import (
	"fmt"
	"time"

	"pocolo/internal/cluster"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/telemetry"
	"pocolo/internal/workload"
)

// uncappedW stands in for "no power constraint": a capacity no workload
// can reach, so the capper never engages.
const uncappedW = 100000

// runManagedHost simulates one server hosting lcName (plus beName unless
// empty) under the trace and management policy for the duration, returning
// the host for series access and its metrics.
func (s *Suite) runManagedHost(lcName, beName string, trace workload.Trace, capW float64, policy servermgr.LCPolicy, dur time.Duration, seed int64) (*sim.Host, sim.Metrics, error) {
	lc, err := s.Catalog.ByName(lcName)
	if err != nil {
		return nil, sim.Metrics{}, err
	}
	var be *workload.Spec
	if beName != "" {
		if be, err = s.Catalog.ByName(beName); err != nil {
			return nil, sim.Metrics{}, err
		}
	}
	model, err := s.Model(lcName)
	if err != nil {
		return nil, sim.Metrics{}, err
	}
	engine, err := sim.NewEngine(servermgr.CapPeriod)
	if err != nil {
		return nil, sim.Metrics{}, err
	}
	host, _, err := servermgr.Start(engine, sim.HostConfig{
		Name:    fmt.Sprintf("%s+%s", lcName, beName),
		Machine: s.Machine,
		LC:      lc,
		BE:      be,
		Trace:   trace,
		CapW:    capW,
		Seed:    seed,
	}, servermgr.Config{Model: model, Policy: policy, Seed: seed})
	if err != nil {
		return nil, sim.Metrics{}, err
	}
	if err := engine.Run(dur); err != nil {
		return nil, sim.Metrics{}, err
	}
	return host, host.Metrics(), nil
}

// TableIResult reproduces Table I (server configuration).
type TableIResult struct {
	Rows [][2]string
}

// TableI lists the simulated platform's configuration.
func (s *Suite) TableI() TableIResult {
	c := s.Machine
	return TableIResult{Rows: [][2]string{
		{"Processor", c.Name},
		{"Cores", fmt.Sprintf("%d cores", c.Cores)},
		{"Frequency", fmt.Sprintf("%.1f GHz to %.1f GHz", c.MinFreqGHz, c.MaxFreqGHz)},
		{"LLC capacity", fmt.Sprintf("%.0fM, %d ways", c.LLCMB, c.LLCWays)},
		{"Memory", fmt.Sprintf("%dGB DDR4", c.MemoryGB)},
		{"Storage", fmt.Sprintf("%dGB SSD", c.StorageGB)},
		{"Power", fmt.Sprintf("Idle:%.0f W, Active:%.0f W", c.IdlePowerW, c.ActivePowerW)},
	}}
}

// Table renders the result.
func (r TableIResult) Table() Table {
	t := Table{
		Title:   "Table I: Server configuration",
		Caption: "Simulated platform (internal/machine.XeonE52650).",
		Header:  []string{"Property", "Configuration"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row[0], row[1]})
	}
	return t
}

// TableIIRow is one latency-critical application's measured server-level
// characteristics.
type TableIIRow struct {
	App              string
	Domain           string
	P95Ms, P99Ms     float64
	PeakLoad         float64
	SpecPeakPowerW   float64
	MeasuredPowerW   float64 // mean server power at peak load, full machine
	MeasuredP95Ms    float64
	MeasuredP99Ms    float64
	MeasuredGoodput  float64
	SLOViolFracAtMax float64
}

// TableIIResult reproduces Table II.
type TableIIResult struct {
	Rows []TableIIRow
}

// TableII runs each LC application at its peak load on the full machine
// (no manager interference: the host grants the primary everything by
// default) and reports the measured characteristics next to the
// calibration targets.
func (s *Suite) TableII() (TableIIResult, error) {
	var res TableIIResult
	for i, lc := range s.Catalog.LC() {
		trace, err := workload.NewConstantTrace(1.0)
		if err != nil {
			return res, err
		}
		host, err := sim.NewHost(sim.HostConfig{
			Name:    lc.Name,
			Machine: s.Machine,
			LC:      lc,
			Trace:   trace,
			Seed:    s.Seed + int64(i),
		})
		if err != nil {
			return res, err
		}
		engine, err := sim.NewEngine(servermgr.CapPeriod)
		if err != nil {
			return res, err
		}
		if err := engine.AddHost(host); err != nil {
			return res, err
		}
		if err := engine.Run(30 * time.Second); err != nil {
			return res, err
		}
		m := host.Metrics()
		res.Rows = append(res.Rows, TableIIRow{
			App:              lc.Name,
			Domain:           lc.Domain,
			P95Ms:            lc.SLO.P95Ms,
			P99Ms:            lc.SLO.P99Ms,
			PeakLoad:         lc.PeakLoad,
			SpecPeakPowerW:   lc.ProvisionedPowerW,
			MeasuredPowerW:   m.MeanPowerW,
			MeasuredP95Ms:    host.ObservedP95(),
			MeasuredP99Ms:    host.ObservedP99(),
			MeasuredGoodput:  m.LCOps / m.DurationSec,
			SLOViolFracAtMax: m.SLOViolFrac,
		})
	}
	return res, nil
}

// Table renders the result.
func (r TableIIResult) Table() Table {
	t := Table{
		Title:   "Table II: Latency-critical applications, server-level characteristics",
		Caption: "Measured at peak load on the full machine; power includes the 50 W idle floor.",
		Header:  []string{"app", "domain", "p95 SLO (ms)", "p99 SLO (ms)", "measured p95/p99 (ms)", "peak load (req/s)", "provisioned (W)", "measured power (W)", "measured goodput (req/s)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.App, row.Domain, f2(row.P95Ms), f2(row.P99Ms),
			f2(row.MeasuredP95Ms) + "/" + f2(row.MeasuredP99Ms), f1(row.PeakLoad),
			f1(row.SpecPeakPowerW), f1(row.MeasuredPowerW), f1(row.MeasuredGoodput),
		})
	}
	return t
}

// Fig1Point is one sampled instant of the motivation time series.
type Fig1Point struct {
	AtSec    float64
	LoadFrac float64
	PowerW   float64
}

// Fig1Result reproduces Fig. 1: naive colocation under a diurnal primary
// load overshoots the provisioned power capacity during off-peak hours.
type Fig1Result struct {
	CapW          float64
	Series        []Fig1Point
	PeakPowerW    float64
	OverCapFrac   float64
	OffPeakOverW  float64 // worst overshoot observed during the trough
	SoloPeakW     float64 // power of the primary alone at its peak load
	BECorunner    string
	LCApplication string
}

// Fig1 simulates a xapian server with a graph co-runner admitted naively
// (no power capping) across one diurnal cycle.
func (s *Suite) Fig1() (Fig1Result, error) {
	trace, err := workload.NewDiurnalTrace(0.1, 0.9, 4*time.Minute)
	if err != nil {
		return Fig1Result{}, err
	}
	host, m, err := s.runManagedHost("xapian", "graph", trace, uncappedW, servermgr.PowerUnaware, 4*time.Minute, s.Seed)
	if err != nil {
		return Fig1Result{}, err
	}
	lc, err := s.Catalog.ByName("xapian")
	if err != nil {
		return Fig1Result{}, err
	}
	res := Fig1Result{
		CapW:          lc.ProvisionedPowerW,
		PeakPowerW:    m.PeakPowerW,
		LCApplication: "xapian",
		BECorunner:    "graph",
		SoloPeakW:     lc.ProvisionedPowerW,
	}
	pts := host.PowerSeries().Points()
	loads := host.LoadSeries().Points()
	over := 0
	for i := 0; i < len(pts); i++ {
		if pts[i].Value > res.CapW {
			over++
			if pts[i].Value-res.CapW > res.OffPeakOverW {
				res.OffPeakOverW = pts[i].Value - res.CapW
			}
		}
		if i%100 == 0 { // sample every 10 s for the rendered series
			res.Series = append(res.Series, Fig1Point{
				AtSec:    pts[i].Time.Sub(pts[0].Time).Seconds(),
				LoadFrac: loads[i].Value / lc.PeakLoad,
				PowerW:   pts[i].Value,
			})
		}
	}
	if len(pts) > 0 {
		res.OverCapFrac = float64(over) / float64(len(pts))
	}
	return res, nil
}

// Table renders the result.
func (r Fig1Result) Table() Table {
	t := Table{
		Title: "Fig. 1: Naive colocation overshoots provisioned power under diurnal load",
		Caption: fmt.Sprintf("%s + %s, no power capping; provisioned capacity %.0f W; over cap %s of the cycle, worst overshoot +%.1f W.",
			r.LCApplication, r.BECorunner, r.CapW, pct(r.OverCapFrac), r.OffPeakOverW),
		Header: []string{"t (s)", "LC load (% peak)", "server power (W)", "over cap?"},
	}
	for _, p := range r.Series {
		over := ""
		if p.PowerW > r.CapW {
			over = "OVER"
		}
		t.Rows = append(t.Rows, []string{f1(p.AtSec), pct(p.LoadFrac), f1(p.PowerW), over})
	}
	return t
}

// Fig2Row is one best-effort application's uncapped colocated power draw.
type Fig2Row struct {
	BE            string
	ServerPowerW  float64
	CapW          float64
	OvershootFrac float64 // (power − cap)/cap
}

// Fig2Result reproduces Fig. 2.
type Fig2Result struct {
	Rows []Fig2Row
}

// Fig2 runs xapian at 10% load with each best-effort application on the
// spare resources, power capping disabled, and reports the server draw
// against the provisioned capacity.
func (s *Suite) Fig2() (Fig2Result, error) {
	lc, err := s.Catalog.ByName("xapian")
	if err != nil {
		return Fig2Result{}, err
	}
	var res Fig2Result
	for i, be := range s.Catalog.BE() {
		trace, err := workload.NewConstantTrace(0.1)
		if err != nil {
			return Fig2Result{}, err
		}
		host, _, err := s.runManagedHost("xapian", be.Name, trace, uncappedW, servermgr.PowerOptimized, 30*time.Second, s.Seed+int64(i)*13)
		if err != nil {
			return Fig2Result{}, err
		}
		steady := steadyStateMean(host.PowerSeries(), 5*time.Second)
		res.Rows = append(res.Rows, Fig2Row{
			BE:            be.Name,
			ServerPowerW:  steady,
			CapW:          lc.ProvisionedPowerW,
			OvershootFrac: (steady - lc.ProvisionedPowerW) / lc.ProvisionedPowerW,
		})
	}
	return res, nil
}

// steadyStateMean averages a series after discarding the warmup prefix, so
// single-operating-point measurements are not diluted by the cold-start
// transient.
func steadyStateMean(series *telemetry.Series, warmup time.Duration) float64 {
	pts := series.Points()
	if len(pts) == 0 {
		return 0
	}
	cut := pts[0].Time.Add(warmup)
	sum, n := 0.0, 0
	for _, p := range pts {
		if p.Time.Before(cut) {
			continue
		}
		sum += p.Value
		n++
	}
	if n == 0 {
		return pts[len(pts)-1].Value
	}
	return sum / float64(n)
}

// Table renders the result.
func (r Fig2Result) Table() Table {
	t := Table{
		Title:   "Fig. 2: Server power exceeds provisioned capacity when co-running with xapian @ 10% load",
		Caption: "Power capping disabled; every co-runner pushes the server past its right-sized capacity.",
		Header:  []string{"co-runner", "server power (W)", "provisioned (W)", "overshoot"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.BE, f1(row.ServerPowerW), f1(row.CapW), pct(row.OvershootFrac)})
	}
	return t
}

// Fig3Row compares one BE application's throughput with and without the
// power constraint.
type Fig3Row struct {
	BE          string
	UncappedThr float64
	CappedThr   float64
	DropFrac    float64
}

// Fig3Result reproduces Fig. 3.
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3 measures each BE application's throughput alongside xapian at 10%
// load, first without any power constraint and then under the provisioned
// capacity with the power capper active.
func (s *Suite) Fig3() (Fig3Result, error) {
	var res Fig3Result
	for i, be := range s.Catalog.BE() {
		trace, err := workload.NewConstantTrace(0.1)
		if err != nil {
			return Fig3Result{}, err
		}
		_, unc, err := s.runManagedHost("xapian", be.Name, trace, uncappedW, servermgr.PowerOptimized, 30*time.Second, s.Seed+int64(i)*17)
		if err != nil {
			return Fig3Result{}, err
		}
		_, cap, err := s.runManagedHost("xapian", be.Name, trace, 0, servermgr.PowerOptimized, 30*time.Second, s.Seed+int64(i)*17)
		if err != nil {
			return Fig3Result{}, err
		}
		row := Fig3Row{BE: be.Name, UncappedThr: unc.BEMeanThr, CappedThr: cap.BEMeanThr}
		if unc.BEMeanThr > 0 {
			row.DropFrac = 1 - cap.BEMeanThr/unc.BEMeanThr
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the result.
func (r Fig3Result) Table() Table {
	t := Table{
		Title:   "Fig. 3: BE throughput with and without the power constraint (xapian @ 10% load)",
		Caption: "Same server resources; only the power budget differs. Throughput in normalized ops/s.",
		Header:  []string{"app", "uncapped thr", "capped thr", "drop"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.BE, f1(row.UncappedThr), f1(row.CappedThr), pct(row.DropFrac)})
	}
	return t
}

// Fig4Row is one (application, load) throughput measurement.
type Fig4Row struct {
	BE       string
	LoadFrac float64
	Thr      float64
}

// Fig4Result reproduces Fig. 4: RNN vs LSTM across the whole xapian load
// spectrum.
type Fig4Result struct {
	Rows []Fig4Row
	// MeanThr aggregates per application across loads.
	MeanThr map[string]float64
}

// Fig4 sweeps xapian's load from 10% to 90% with LSTM and RNN as
// co-runners under the provisioned power cap.
func (s *Suite) Fig4() (Fig4Result, error) {
	res := Fig4Result{MeanThr: make(map[string]float64)}
	for _, beName := range []string{"lstm", "rnn"} {
		sum := 0.0
		for li, load := range cluster.DefaultLoadRange() {
			trace, err := workload.NewConstantTrace(load)
			if err != nil {
				return res, err
			}
			_, m, err := s.runManagedHost("xapian", beName, trace, 0, servermgr.PowerOptimized, 20*time.Second, s.Seed+int64(li)*7)
			if err != nil {
				return res, err
			}
			res.Rows = append(res.Rows, Fig4Row{BE: beName, LoadFrac: load, Thr: m.BEMeanThr})
			sum += m.BEMeanThr
		}
		res.MeanThr[beName] = sum / float64(len(cluster.DefaultLoadRange()))
	}
	return res, nil
}

// Table renders the result.
func (r Fig4Result) Table() Table {
	t := Table{
		Title: "Fig. 4: LSTM vs RNN across the xapian load spectrum (power capped)",
		Caption: fmt.Sprintf("Mean throughput: lstm %.1f, rnn %.1f — the whole load range, not one operating point, decides the better co-runner.",
			r.MeanThr["lstm"], r.MeanThr["rnn"]),
		Header: []string{"app", "xapian load", "BE throughput"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.BE, pct(row.LoadFrac), f1(row.Thr)})
	}
	return t
}
