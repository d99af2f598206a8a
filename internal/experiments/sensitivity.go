package experiments

import (
	"fmt"
	"time"

	"pocolo/internal/cluster"
	"pocolo/internal/parallel"
	"pocolo/internal/stats"
)

// SeedRow is one random seed's headline numbers.
type SeedRow struct {
	Seed              int64
	ImprovementPOM    float64
	ImprovementPOColo float64
}

// SeedSensitivityResult repeats the Fig. 12 headline across independent
// seeds (fresh profiling noise, placement draws, and simulation noise per
// seed) and summarizes the spread — the error bars the paper's single-run
// bar charts omit.
type SeedSensitivityResult struct {
	Rows []SeedRow
	// POMMin/Mean/Max and POColoMin/Mean/Max summarize the improvements.
	POMMin, POMMean, POMMax          float64
	POColoMin, POColoMean, POColoMax float64
}

// SeedSensitivity reruns the full pipeline (profile → fit → place →
// simulate all three policies) under the given seeds (default 3 seeds
// derived from the suite's).
func (s *Suite) SeedSensitivity(seeds ...int64) (SeedSensitivityResult, error) {
	if len(seeds) == 0 {
		seeds = []int64{s.Seed, s.Seed + 1000, s.Seed + 2000}
	}
	var res SeedSensitivityResult
	// Each replica is a fully independent pipeline (its own profiling
	// noise, models, placements, and simulations), so the replicas fan out
	// through the worker pool; rows land at their seed's index.
	rows := make([]SeedRow, len(seeds))
	label := s.Trace.Label("sensitivity-seeds")
	err := parallel.ForEach(len(seeds), s.Parallel, func(i int) error {
		seed := seeds[i]
		sub, err := s.seedSuite(seed, label)
		if err != nil {
			return err
		}
		if err := sub.prefetchPolicies(cluster.Random, cluster.POM, cluster.POColo); err != nil {
			return err
		}
		random, err := sub.policyRun(cluster.Random)
		if err != nil {
			return err
		}
		pom, err := sub.policyRun(cluster.POM)
		if err != nil {
			return err
		}
		pocolo, err := sub.policyRun(cluster.POColo)
		if err != nil {
			return err
		}
		row := SeedRow{Seed: seed}
		if random.BENormThroughput > 0 {
			row.ImprovementPOM = pom.BENormThroughput/random.BENormThroughput - 1
			row.ImprovementPOColo = pocolo.BENormThroughput/random.BENormThroughput - 1
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	var poms, pocolos []float64
	for _, row := range rows {
		poms = append(poms, row.ImprovementPOM)
		pocolos = append(pocolos, row.ImprovementPOColo)
	}
	res.POMMin, res.POMMean, res.POMMax = stats.Min(poms), stats.Mean(poms), stats.Max(poms)
	res.POColoMin, res.POColoMean, res.POColoMax = stats.Min(pocolos), stats.Mean(pocolos), stats.Max(pocolos)
	return res, nil
}

// seedSuite refits one seed's sub-suite on a copy of the suite's setup:
// the same machine, catalog and run settings, the seed's own models and a
// dwell of at most 3 s. It traces its runs under label + "seed<N>/", fixed
// before any fan-out so that host names do not depend on scheduling.
func (s *Suite) seedSuite(seed int64, label string) (*Suite, error) {
	setup := s.Setup
	setup.Seed = seed
	setup.Dwell = min(s.Dwell, 3*time.Second)
	if err := setup.fit(); err != nil {
		return nil, err
	}
	return &Suite{Setup: setup, traceLabel: fmt.Sprintf("%sseed%d/", label, seed)}, nil
}

// Table renders the result.
func (r SeedSensitivityResult) Table() Table {
	t := Table{
		Title: "Sensitivity: Fig. 12 headline across independent seeds",
		Caption: "POM " + pct(r.POMMean) + " [" + pct(r.POMMin) + ", " + pct(r.POMMax) + "], " +
			"POColo " + pct(r.POColoMean) + " [" + pct(r.POColoMin) + ", " + pct(r.POColoMax) + "] over Random. Paper: +8% / +18%.",
		Header: []string{"seed", "POM improvement", "POColo improvement"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{fmt.Sprint(row.Seed), pct(row.ImprovementPOM), pct(row.ImprovementPOColo)})
	}
	return t
}
