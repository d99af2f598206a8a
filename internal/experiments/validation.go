package experiments

import (
	"fmt"
	"time"

	"pocolo/internal/machine"
	"pocolo/internal/online"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/sim/des"
	"pocolo/internal/workload"
)

// OnlineRow is one configuration of the online-adaptation study.
type OnlineRow struct {
	Config      string
	MeanPowerW  float64
	SLOViolFrac float64
	EnergyKWh   float64
	Refits      int
	PrefCores   float64 // model's cores preference at the end of the run
}

// AblationOnlineResult studies runtime model adaptation (Section IV-A's
// "sampled online during execution" path).
type AblationOnlineResult struct {
	Rows []OnlineRow
	// TruthPrefCores is the ground-truth cores preference of the live app.
	TruthPrefCores float64
}

// AblationOnline runs a xapian server three ways across two load sweeps:
// with its properly profiled model, with a borrowed img-dnn model (a
// conservatively wrong cold start), and with the borrowed model plus the
// online refitting adapter. Adaptation should recover most of the power
// the wrong model wastes while keeping violations transient.
func (s *Suite) AblationOnline() (AblationOnlineResult, error) {
	const dur = 90 * time.Second
	lc, err := s.Catalog.ByName("xapian")
	if err != nil {
		return AblationOnlineResult{}, err
	}
	rightModel, err := s.Model("xapian")
	if err != nil {
		return AblationOnlineResult{}, err
	}
	wrongBase, err := s.Model("img-dnn")
	if err != nil {
		return AblationOnlineResult{}, err
	}

	run := func(name string, borrowed, adapt bool) (OnlineRow, error) {
		model := rightModel
		if borrowed {
			clone := *wrongBase
			clone.Alpha = append([]float64(nil), wrongBase.Alpha...)
			clone.P = append([]float64(nil), wrongBase.P...)
			clone.App = "xapian"
			model = &clone
		}
		engine, err := sim.NewEngine(servermgr.CapPeriod)
		if err != nil {
			return OnlineRow{}, err
		}
		host, mgr, err := servermgr.Start(engine, sim.HostConfig{
			Name: name, Machine: s.Machine, LC: lc,
			Trace: workload.UniformSweep(5 * time.Second), Seed: s.Seed,
		}, servermgr.Config{Model: model, Policy: servermgr.PowerOptimized})
		if err != nil {
			return OnlineRow{}, err
		}
		var adapter *online.Adapter
		if adapt {
			adapter, err = online.NewAdapter(online.AdapterConfig{Host: host, Manager: mgr})
			if err != nil {
				return OnlineRow{}, err
			}
			if err := adapter.Attach(engine); err != nil {
				return OnlineRow{}, err
			}
		}
		if err := engine.Run(dur); err != nil {
			return OnlineRow{}, err
		}
		m := host.Metrics()
		row := OnlineRow{
			Config:      name,
			MeanPowerW:  m.MeanPowerW,
			SLOViolFrac: m.SLOViolFrac,
			EnergyKWh:   m.EnergyKWh,
			PrefCores:   mgr.Model().Preference()[0],
		}
		if adapter != nil {
			_, _, row.Refits, _ = adapter.Stats()
		}
		return row, nil
	}

	var res AblationOnlineResult
	res.TruthPrefCores, _ = lc.PreferenceTruth()
	for _, c := range []struct {
		name     string
		borrowed bool
		adapt    bool
	}{
		{"profiled model", false, false},
		{"borrowed model (img-dnn)", true, false},
		{"borrowed + online refit", true, true},
	} {
		row, err := run(c.name, c.borrowed, c.adapt)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the result.
func (r AblationOnlineResult) Table() Table {
	t := Table{
		Title:   "Ablation: online model adaptation (xapian, two load sweeps)",
		Caption: fmt.Sprintf("Ground-truth cores preference %.2f. The borrowed model over-allocates; the adapter recovers the wasted power.", r.TruthPrefCores),
		Header:  []string{"configuration", "mean power (W)", "SLO violations", "energy (kWh)", "refits", "final cores pref"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Config, f1(row.MeanPowerW), pct(row.SLOViolFrac),
			fmt.Sprintf("%.4f", row.EnergyKWh), fmt.Sprint(row.Refits), f2(row.PrefCores),
		})
	}
	return t
}

// DESRow is one utilization point of the fluid-vs-DES comparison.
type DESRow struct {
	Rho      float64
	FluidP99 float64
	DESP99   float64
	// FluidGrowth and DESGrowth normalize each tail to its value at the
	// lowest utilization, removing the scale difference between the two
	// models (the fluid law's latency floor is calibrated to the
	// application's SLO; the exponential-service queue's scale is its
	// service time).
	FluidGrowth float64
	DESGrowth   float64
}

// ValidationDESResult cross-validates the fluid latency law against the
// request-level discrete-event queue.
type ValidationDESResult struct {
	App   string
	Alloc machine.Alloc
	Rows  []DESRow
}

// ValidationDES drives a Poisson request stream through a k-server queue
// sized from a xapian allocation and compares the measured p99 against the
// fluid model's analytic tail at matched utilizations. The two are
// different queueing laws, so no exact match is expected — the validation
// is that both tails grow together and stay within a small factor through
// the operating range the controller uses.
func (s *Suite) ValidationDES() (ValidationDESResult, error) {
	spec, err := s.Catalog.ByName("xapian")
	if err != nil {
		return ValidationDESResult{}, err
	}
	alloc := machine.Alloc{Cores: 6, Ways: 10, FreqGHz: s.Machine.MaxFreqGHz, Duty: 1}
	res := ValidationDESResult{App: "xapian", Alloc: alloc}
	var fluidBase, desBase float64
	for i, rho := range []float64{0.3, 0.5, 0.7, 0.85, 0.97} {
		load := rho * spec.Capacity(alloc)
		fluid := spec.P99(alloc, load)
		out, err := des.Run(des.FromAlloc(spec, alloc, load, 3*time.Minute, s.Seed))
		if err != nil {
			return res, err
		}
		measured := out.Hist.Percentile(99)
		if i == 0 {
			fluidBase, desBase = fluid, measured
		}
		res.Rows = append(res.Rows, DESRow{
			Rho: rho, FluidP99: fluid, DESP99: measured,
			FluidGrowth: fluid / fluidBase, DESGrowth: measured / desBase,
		})
	}
	return res, nil
}

// Table renders the result.
func (r ValidationDESResult) Table() Table {
	t := Table{
		Title:   fmt.Sprintf("Validation: fluid latency law vs discrete-event queue (%s on %v)", r.App, r.Alloc),
		Caption: "Absolute scales differ by design (the fluid law's floor is SLO-calibrated, the queue's is service-time-based); the normalized growth with utilization must track.",
		Header:  []string{"utilization ρ", "fluid p99 (ms)", "M/M/k p99 (ms)", "fluid growth", "M/M/k growth"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{f2(row.Rho), f3(row.FluidP99), f3(row.DESP99), f2(row.FluidGrowth), f2(row.DESGrowth)})
	}
	return t
}
