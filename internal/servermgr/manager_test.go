package servermgr

import (
	"testing"
	"time"

	"pocolo/internal/machine"
	"pocolo/internal/profiler"
	"pocolo/internal/sim"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

type bench struct {
	host *sim.Host
	mgr  *Manager
	eng  *sim.Engine
}

func fitted(t *testing.T, name string) *utility.Model {
	t.Helper()
	cat := workload.MustDefaults()
	spec, err := cat.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := profiler.ProfileAndFit(profiler.Config{Spec: spec, Machine: machine.XeonE52650(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newBench builds a host running lcName (with beName co-located unless
// empty) under trace, managed with the given policy.
func newBench(t *testing.T, lcName, beName string, trace workload.Trace, policy LCPolicy) *bench {
	t.Helper()
	cat := workload.MustDefaults()
	lc, err := cat.ByName(lcName)
	if err != nil {
		t.Fatal(err)
	}
	var be *workload.Spec
	if beName != "" {
		be, err = cat.ByName(beName)
		if err != nil {
			t.Fatal(err)
		}
	}
	eng, err := sim.NewEngine(CapPeriod)
	if err != nil {
		t.Fatal(err)
	}
	host, mgr, err := Start(eng, sim.HostConfig{
		Name:    "bench",
		Machine: machine.XeonE52650(),
		LC:      lc,
		BE:      be,
		Trace:   trace,
		Seed:    21,
	}, Config{Model: fitted(t, lcName), Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return &bench{host: host, mgr: mgr, eng: eng}
}

// TestStart checks the one bring-up routine: it refuses a nil engine, a
// preset host, and a bad host or manager setting without registering
// anything, and otherwise registers the host on the engine with the
// manager's two loops attached there.
func TestStart(t *testing.T) {
	lc, err := workload.MustDefaults().ByName("xapian")
	if err != nil {
		t.Fatal(err)
	}
	model := fitted(t, "xapian")
	hc := sim.HostConfig{Name: "s", Machine: machine.XeonE52650(), LC: lc, Trace: constTrace(t, 0.5), Seed: 3}
	eng, err := sim.NewEngine(CapPeriod)
	if err != nil {
		t.Fatal(err)
	}
	preset, err := sim.NewHost(hc)
	if err != nil {
		t.Fatal(err)
	}
	noName := hc
	noName.Name = ""
	for _, c := range []struct {
		name string
		e    *sim.Engine
		hc   sim.HostConfig
		cfg  Config
	}{
		{"nil engine", nil, hc, Config{Model: model}},
		{"preset host", eng, hc, Config{Host: preset, Model: model}},
		{"bad host", eng, noName, Config{Model: model}},
		{"nil model", eng, hc, Config{}},
		{"bad slack", eng, hc, Config{Model: model, TargetSlack: 0.9}},
	} {
		if _, _, err := Start(c.e, c.hc, c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if n := len(eng.Hosts()); n != 0 {
		t.Fatalf("failed bring-ups registered %d hosts", n)
	}
	host, mgr, err := Start(eng, hc, Config{Model: model, Policy: PowerOptimized})
	if err != nil {
		t.Fatal(err)
	}
	if hosts := eng.Hosts(); len(hosts) != 1 || hosts[0] != host {
		t.Fatalf("engine hosts %v, want the started host", hosts)
	}
	if control, _, _ := mgr.Counters(); control != 1 {
		t.Errorf("%d control ticks at attach, want the initial one", control)
	}
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if control, _, _ := mgr.Counters(); control != 3 {
		t.Errorf("%d control ticks after 2 s, want 3", control)
	}
	if _, _, err := Start(eng, hc, Config{Model: model}); err == nil {
		t.Error("expected error for a second host of the same name")
	}
}

func constTrace(t *testing.T, level float64) workload.Trace {
	t.Helper()
	tr, err := workload.NewConstantTrace(level)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	cat := workload.MustDefaults()
	lc, _ := cat.ByName("xapian")
	host, err := sim.NewHost(sim.HostConfig{
		Name: "v", Machine: machine.XeonE52650(), LC: lc, Trace: constTrace(t, 0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	model := fitted(t, "xapian")
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil host", Config{Model: model}},
		{"nil model", Config{Host: host}},
		{"bad slack", Config{Host: host, Model: model, TargetSlack: 0.9}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	mgr, err := New(Config{Host: host, Model: model, Policy: PowerOptimized})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Attach(nil); err == nil {
		t.Error("expected error attaching to nil engine")
	}
	if PowerUnaware.String() == "" || PowerOptimized.String() == "" || LCPolicy(7).String() == "" {
		t.Error("LCPolicy strings should render")
	}
}

func TestPOMMaintainsSLOAtSteadyLoad(t *testing.T) {
	b := newBench(t, "xapian", "rnn", constTrace(t, 0.5), PowerOptimized)
	if err := b.eng.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := b.host.Metrics()
	if m.SLOViolFrac > 0.05 {
		t.Errorf("SLO violated %.1f%% of the time", m.SLOViolFrac*100)
	}
	if m.MeanSlack < 0.05 {
		t.Errorf("mean slack = %v, want ≥ 0.05", m.MeanSlack)
	}
	if m.BEOps == 0 {
		t.Error("BE made no progress")
	}
	// The capper must keep the server essentially inside the cap.
	if m.CapOverFrac > 0.10 {
		t.Errorf("over cap %.1f%% of time", m.CapOverFrac*100)
	}
	control, _, _ := b.mgr.Counters()
	if control < 60 {
		t.Errorf("control ticks = %d", control)
	}
}

func TestBaselineMaintainsSLOToo(t *testing.T) {
	b := newBench(t, "img-dnn", "lstm", constTrace(t, 0.4), PowerUnaware)
	if err := b.eng.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := b.host.Metrics()
	if m.SLOViolFrac > 0.05 {
		t.Errorf("SLO violated %.1f%% of the time", m.SLOViolFrac*100)
	}
	if m.BEOps == 0 {
		t.Error("BE made no progress")
	}
}

func TestPOMDrawsLessLCPowerThanBaseline(t *testing.T) {
	// The core POM claim: power-optimized management of the SAME workload
	// uses less energy. Run both policies without a co-runner so the
	// difference is purely the LC allocation choice.
	run := func(policy LCPolicy) sim.Metrics {
		b := newBench(t, "sphinx", "", constTrace(t, 0.5), policy)
		if err := b.eng.Run(90 * time.Second); err != nil {
			t.Fatal(err)
		}
		m := b.host.Metrics()
		if m.SLOViolFrac > 0.05 {
			t.Fatalf("%v: SLO violated %.1f%%", policy, m.SLOViolFrac*100)
		}
		return m
	}
	pom := run(PowerOptimized)
	base := run(PowerUnaware)
	if pom.MeanPowerW >= base.MeanPowerW {
		t.Errorf("POM mean power %.1f W not below baseline %.1f W", pom.MeanPowerW, base.MeanPowerW)
	}
	if pom.EnergyKWh >= base.EnergyKWh {
		t.Errorf("POM energy %.4f kWh not below baseline %.4f kWh", pom.EnergyKWh, base.EnergyKWh)
	}
}

func TestCapperThrottlesHungryBE(t *testing.T) {
	// xapian at 10% load leaves huge spare resources; graph uncapped would
	// blow through the 154 W provisioned capacity (Fig. 2). The capper
	// must throttle it.
	b := newBench(t, "xapian", "graph", constTrace(t, 0.1), PowerOptimized)
	if err := b.eng.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := b.host.Metrics()
	if m.CapOverFrac > 0.10 {
		t.Errorf("over cap %.1f%% of time despite capper", m.CapOverFrac*100)
	}
	freq, duty := b.mgr.BEThrottle()
	if freq >= machine.XeonE52650().MaxFreqGHz && duty >= 1 {
		t.Error("capper never engaged for a power-hungry co-runner")
	}
	_, throttles, _ := b.mgr.Counters()
	if throttles == 0 {
		t.Error("no throttle actions recorded")
	}
	// Throughput still flows, just throttled below uncapped.
	if m.BEOps == 0 {
		t.Error("graph starved entirely")
	}
}

func TestCapperRestoresWhenHeadroomReturns(t *testing.T) {
	// Step the LC load down mid-run: headroom opens up and the capper
	// should restore the BE app's clocks.
	step, err := workload.NewStepTrace(0.8, 0.1, 30*time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(t, "xapian", "rnn", step, PowerOptimized)
	if err := b.eng.Run(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	_, _, restores := b.mgr.Counters()
	if restores == 0 {
		t.Error("capper never restored throughput")
	}
}

func TestControllerSurvivesLoadStep(t *testing.T) {
	// 50% → 80% step (the paper's Section II-C reclamation scenario): the
	// manager must reclaim resources from the BE app and keep violations
	// transient.
	step, err := workload.NewStepTrace(0.5, 0.8, 30*time.Second, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(t, "tpcc", "pbzip", step, PowerOptimized)
	if err := b.eng.Run(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := b.host.Metrics()
	// Transient violations right after the step are acceptable; sustained
	// violation is not.
	if m.SLOViolFrac > 0.10 {
		t.Errorf("SLO violated %.1f%% of the time across a load step", m.SLOViolFrac*100)
	}
	// After the step the LC allocation must have grown.
	a, err := b.host.Server().Alloc("tpcc")
	if err != nil {
		t.Fatal(err)
	}
	if a.Cores < 2 {
		t.Errorf("LC allocation %v after 80%% load step looks starved", a)
	}
}

func TestBEReceivesAllSpareResources(t *testing.T) {
	b := newBench(t, "xapian", "lstm", constTrace(t, 0.3), PowerOptimized)
	if err := b.eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	srv := b.host.Server()
	lcAlloc, err := srv.Alloc("xapian")
	if err != nil {
		t.Fatal(err)
	}
	beAlloc, err := srv.Alloc("lstm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.XeonE52650()
	if lcAlloc.Cores+beAlloc.Cores != cfg.Cores {
		t.Errorf("cores unused: lc=%d be=%d", lcAlloc.Cores, beAlloc.Cores)
	}
	if lcAlloc.Ways+beAlloc.Ways != cfg.LLCWays {
		t.Errorf("ways unused: lc=%d be=%d", lcAlloc.Ways, beAlloc.Ways)
	}
}

func TestBEParkWithholdsAndRestoresSpare(t *testing.T) {
	b := newBench(t, "xapian", "lstm", constTrace(t, 0.3), PowerOptimized)
	if err := b.eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	srv := b.host.Server()
	if a, err := srv.Alloc("lstm"); err != nil || a.IsZero() {
		t.Fatalf("precondition: lstm should hold spare resources, got %v, %v", a, err)
	}

	b.mgr.SetBEParked(true)
	if !b.mgr.BEParked() {
		t.Error("BEParked should report true")
	}
	// Parking applies immediately, without waiting for a control tick.
	if a, err := srv.Alloc("lstm"); err != nil || !a.IsZero() {
		t.Errorf("parked lstm should hold nothing, got %v, %v", a, err)
	}
	// And it must stick across subsequent control ticks.
	if err := b.eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if a, err := srv.Alloc("lstm"); err != nil || !a.IsZero() {
		t.Errorf("parked lstm regained resources across ticks: %v, %v", a, err)
	}
	if b.host.BEThroughput() != 0 {
		t.Errorf("parked BE throughput = %v, want 0", b.host.BEThroughput())
	}

	b.mgr.SetBEParked(false)
	if a, err := srv.Alloc("lstm"); err != nil || a.IsZero() {
		t.Errorf("unparked lstm should regain the spare immediately, got %v, %v", a, err)
	}
}

func TestBoostEngagesWhenModelUnderestimates(t *testing.T) {
	// Force a pessimistic scenario: a model fitted for img-dnn driving
	// xapian. The feedback loop must compensate via boost (or the full
	// machine fallback) and still protect the SLO reasonably.
	cat := workload.MustDefaults()
	lc, _ := cat.ByName("xapian")
	host, err := sim.NewHost(sim.HostConfig{
		Name: "mismatch", Machine: machine.XeonE52650(), LC: lc,
		Trace: constTrace(t, 0.6), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	wrongModel := fitted(t, "img-dnn")
	mgr, err := New(Config{Host: host, Model: wrongModel, Policy: PowerOptimized})
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := sim.NewEngine(100 * time.Millisecond)
	if err := eng.AddHost(host); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Attach(eng); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := host.Metrics()
	// The mismatch costs some violations early, but feedback must pull the
	// system back: require the final state to be healthy.
	if host.Slack() < 0 {
		t.Errorf("final slack %v still negative after 60s of feedback", host.Slack())
	}
	if m.SLOViolFrac > 0.5 {
		t.Errorf("feedback failed to stabilize: violations %.0f%%", m.SLOViolFrac*100)
	}
}
