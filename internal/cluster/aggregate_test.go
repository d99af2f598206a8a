package cluster

import (
	"math"
	"testing"

	"pocolo/internal/sim"
)

// trialResult builds a one-host trial with the given capper event count
// and gauge value (used for every averaged float field).
func trialResult(capEvents int, gauge float64) Result {
	return Result{
		BENormThroughput: gauge,
		MeanPowerUtil:    gauge,
		TotalEnergyKWh:   gauge,
		TotalBEOps:       gauge,
		SLOViolFrac:      gauge,
		Hosts: map[string]sim.Metrics{
			"h0": {
				Host:            "h0",
				BEOps:           gauge,
				BEMeanThr:       gauge,
				LCOps:           gauge,
				MeanPowerW:      gauge,
				PowerUtil:       gauge,
				EnergyKWh:       gauge,
				CapOverFrac:     gauge,
				CapEvents:       capEvents,
				SLOViolFrac:     gauge,
				MeanSlack:       gauge,
				DurationSec:     gauge,
				ProvisionedCapW: 133,
			},
		},
	}
}

// TestAggregateTrialsRoundsToNearest is the regression test for the
// CapEvents averaging fix: an averaged event count must round to nearest,
// not truncate — truncation reported one observed excursion as zero
// whenever fewer than half the trials saw it.
func TestAggregateTrialsRoundsToNearest(t *testing.T) {
	cases := []struct {
		name   string
		events []int
		want   int
	}{
		{"all-zero", []int{0, 0, 0, 0, 0, 0}, 0},
		{"below-half", []int{1, 0, 0, 0, 0, 0}, 0},
		{"exactly-half", []int{1, 1, 1, 0, 0, 0}, 1},                     // 0.5 rounds away from zero
		{"above-half-truncation-regression", []int{2, 1, 1, 1, 0, 0}, 1}, // mean 5/6; truncation said 0
		{"multiple", []int{3, 3, 2, 4, 3, 3}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trials := make([]Result, len(tc.events))
			for i, ev := range tc.events {
				trials[i] = trialResult(ev, 1)
			}
			agg := aggregateTrials(trials)
			if got := agg.Hosts["h0"].CapEvents; got != tc.want {
				t.Fatalf("CapEvents = %d, want %d (trials %v)", got, tc.want, tc.events)
			}
		})
	}
}

// TestAggregateTrialsAudit sweeps every averaged field: means for gauges,
// worst-trial for the cluster SLO violation fraction, and pass-through for
// the provisioned cap.
func TestAggregateTrialsAudit(t *testing.T) {
	trials := []Result{trialResult(1, 1.0), trialResult(2, 2.0), trialResult(0, 6.0)}
	// The cluster SLOViolFrac is the worst trial, not the mean.
	trials[1].SLOViolFrac = 0.25
	agg := aggregateTrials(trials)

	const wantMean = 3.0 // (1 + 2 + 6) / 3
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	for name, got := range map[string]float64{
		"BENormThroughput": agg.BENormThroughput,
		"MeanPowerUtil":    agg.MeanPowerUtil,
		"TotalEnergyKWh":   agg.TotalEnergyKWh,
		"TotalBEOps":       agg.TotalBEOps,
	} {
		if !approx(got, wantMean) {
			t.Errorf("%s = %v, want mean %v", name, got, wantMean)
		}
	}
	if !approx(agg.SLOViolFrac, 6.0) {
		t.Errorf("cluster SLOViolFrac = %v, want worst trial 6.0", agg.SLOViolFrac)
	}

	h := agg.Hosts["h0"]
	for name, got := range map[string]float64{
		"SLOViolFrac": h.SLOViolFrac, // a mean at host level, unlike the cluster worst-case
		"BEOps":       h.BEOps,
		"BEMeanThr":   h.BEMeanThr,
		"LCOps":       h.LCOps,
		"MeanPowerW":  h.MeanPowerW,
		"PowerUtil":   h.PowerUtil,
		"EnergyKWh":   h.EnergyKWh,
		"CapOverFrac": h.CapOverFrac,
		"MeanSlack":   h.MeanSlack,
		"DurationSec": h.DurationSec,
	} {
		if !approx(got, wantMean) {
			t.Errorf("host %s = %v, want mean %v", name, got, wantMean)
		}
	}
	if h.CapEvents != 1 {
		t.Errorf("host CapEvents = %d, want round(3/3) = 1", h.CapEvents)
	}
	if h.ProvisionedCapW != 133 {
		t.Errorf("host ProvisionedCapW = %v, want pass-through 133", h.ProvisionedCapW)
	}
	if h.Host != "h0" {
		t.Errorf("host name = %q", h.Host)
	}
}
