package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/trace"
	"pocolo/internal/workload"
)

// sharedEngineReplicated simulates a replicated fleet under placement the
// way RunReplicated once did: every host and its manager on one shared
// engine, inverted from the placement by name, and summarized in host
// order. It is the reference the private-engine path must match bit for
// bit.
func sharedEngineReplicated(t *testing.T, cfg Config, replicas int, mgmt servermgr.LCPolicy, placement map[string]string) Result {
	t.Helper()
	nLC0 := len(cfg.LC)
	beByHost := make(map[string]*workload.Spec)
	for beInst, lcInst := range placement {
		base := beInst[:strings.LastIndexByte(beInst, '#')]
		for _, s := range cfg.BE {
			if s.Name == base {
				beByHost[lcInst] = s
			}
		}
	}
	engine, err := sim.NewEngine(servermgr.CapPeriod)
	if err != nil {
		t.Fatal(err)
	}
	var hosts []*sim.Host
	for j := 0; j < nLC0*replicas; j++ {
		lc := cfg.LC[j%nLC0]
		name := fmt.Sprintf("%s#%d", lc.Name, j/nLC0)
		host, err := sim.NewHost(sim.HostConfig{
			Name:    name,
			Machine: cfg.Machine,
			LC:      lc,
			BE:      beByHost[name],
			Trace:   workload.UniformSweep(cfg.Dwell),
			Seed:    cfg.Seed + int64(j)*977,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.AddHost(host); err != nil {
			t.Fatal(err)
		}
		mgr, err := servermgr.New(servermgr.Config{
			Host:        host,
			Model:       cfg.Models[lc.Name],
			Policy:      mgmt,
			TargetSlack: cfg.TargetSlack,
			Seed:        cfg.Seed + int64(j)*389,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Attach(engine); err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, host)
	}
	if err := engine.Run(workload.UniformSweep(cfg.Dwell).Duration()); err != nil {
		t.Fatal(err)
	}
	res := Result{Placement: placement, Hosts: make(map[string]sim.Metrics, len(hosts))}
	var normSum, utilSum float64
	var normCount int
	for _, h := range hosts {
		m := h.Metrics()
		res.Hosts[h.Name()] = m
		res.TotalEnergyKWh += m.EnergyKWh
		res.TotalBEOps += m.BEOps
		utilSum += m.PowerUtil
		if m.SLOViolFrac > res.SLOViolFrac {
			res.SLOViolFrac = m.SLOViolFrac
		}
		if be := h.BE(); be != nil {
			normSum += m.BEMeanThr / be.PeakLoad
			normCount++
		}
	}
	res.MeanPowerUtil = utilSum / float64(len(hosts))
	if normCount > 0 {
		res.BENormThroughput = normSum / float64(normCount)
	}
	return res
}

// TestRunReplicatedMatchesSharedEngine holds the replicated fleet, whose
// hosts each run on a private engine in the worker pool, to the
// shared-engine reference under both management policies, sequentially
// and at full parallelism.
func TestRunReplicatedMatchesSharedEngine(t *testing.T) {
	cfg := fixture(t)
	cfg.Dwell = time.Second
	for _, mgmt := range []servermgr.LCPolicy{servermgr.PowerOptimized, servermgr.PowerUnaware} {
		for _, par := range []int{1, 0} {
			c := cfg
			c.Parallel = par
			res, err := RunReplicated(c, 2, mgmt)
			if err != nil {
				t.Fatal(err)
			}
			if want := sharedEngineReplicated(t, c, 2, mgmt, res.Placement); !reflect.DeepEqual(res, want) {
				t.Errorf("%v, parallel %d: private engines diverge from the shared engine:\ngot  %+v\nwant %+v", mgmt, par, res, want)
			}
		}
	}
}

// TestRunReplicatedTracesEveryHost checks that a traced replicated run
// records every host's control decisions on that host's own timeline, and
// that tracing leaves the result alone.
func TestRunReplicatedTracesEveryHost(t *testing.T) {
	cfg := fixture(t)
	cfg.Dwell = time.Second
	plain, err := RunReplicated(cfg, 2, servermgr.PowerOptimized)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = trace.NewSet(0)
	cfg.TraceLabel = "rep/"
	res, err := RunReplicated(cfg, 2, servermgr.PowerOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("tracing changed the result:\ntraced %+v\nplain  %+v", res, plain)
	}
	controls := make(map[string]int)
	for _, ev := range cfg.Trace.Events() {
		if ev.Kind == trace.KindControl {
			controls[ev.Host]++
		}
	}
	// One decision at attach, then one per second of the sweep.
	want := int(workload.UniformSweep(cfg.Dwell).Duration()/time.Second) + 1
	for name := range res.Hosts {
		if got := controls["rep/"+name]; got != want {
			t.Errorf("host %s: %d control decisions traced, want %d", name, got, want)
		}
	}
	if len(controls) != len(res.Hosts) {
		t.Errorf("control decisions on %d timelines, want one per host (%d): %v", len(controls), len(res.Hosts), controls)
	}
}

// TestRunReplicatedRefusesBudget checks that a budget, which replicated
// runs do not implement, is an error rather than silently ignored.
func TestRunReplicatedRefusesBudget(t *testing.T) {
	cfg := fixture(t)
	cfg.Dwell = time.Second
	cfg.Budget = &BudgetConfig{TotalW: 1000}
	if _, err := RunReplicated(cfg, 1, servermgr.PowerOptimized); err == nil {
		t.Error("budgeted replicated run succeeded")
	}
}
