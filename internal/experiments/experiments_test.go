package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	suiteOnce sync.Once
	suiteVal  *Suite
	suiteErr  error
)

// sharedSuite builds the (deterministic) suite once for the whole package;
// the cluster policy runs are memoized inside it, so the evaluation tests
// share their simulations exactly like the paper's figures share runs.
func sharedSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = NewSuite(42)
		if suiteErr == nil {
			suiteVal.Dwell = 3 * time.Second
		}
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteVal
}

func TestTableI(t *testing.T) {
	s := sharedSuite(t)
	r := s.TableI()
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	tbl := r.Table()
	if !strings.Contains(tbl.String(), "Xeon") {
		t.Error("table should name the processor")
	}
	if !strings.Contains(tbl.Markdown(), "| Property |") {
		t.Error("markdown rendering broken")
	}
}

func TestTableIIMatchesCalibration(t *testing.T) {
	s := sharedSuite(t)
	r, err := s.TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Measured peak power within 2% of the Table II target.
		if rel := (row.MeasuredPowerW - row.SpecPeakPowerW) / row.SpecPeakPowerW; rel > 0.02 || rel < -0.02 {
			t.Errorf("%s: measured %0.1f W vs spec %0.1f W", row.App, row.MeasuredPowerW, row.SpecPeakPowerW)
		}
		// Goodput at peak within 2% of the peak load.
		if rel := (row.MeasuredGoodput - row.PeakLoad) / row.PeakLoad; rel > 0.02 || rel < -0.02 {
			t.Errorf("%s: goodput %0.1f vs peak %0.1f", row.App, row.MeasuredGoodput, row.PeakLoad)
		}
	}
	if len(r.Table().Rows) != 4 {
		t.Error("table rendering broken")
	}
}

func TestFig1NaiveColocationOvershoots(t *testing.T) {
	s := sharedSuite(t)
	r, err := s.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if r.OverCapFrac < 0.2 {
		t.Errorf("naive colocation over cap only %s of the cycle; the motivation needs sustained overshoot", pct(r.OverCapFrac))
	}
	if r.PeakPowerW <= r.CapW {
		t.Errorf("peak %0.1f W never exceeded the %0.1f W capacity", r.PeakPowerW, r.CapW)
	}
	if len(r.Series) < 10 {
		t.Errorf("series too short: %d", len(r.Series))
	}
	if len(r.Table().Rows) != len(r.Series) {
		t.Error("table rendering broken")
	}
}

func TestFig2AllCorunnersOvershoot(t *testing.T) {
	s := sharedSuite(t)
	r, err := s.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]Fig2Row{}
	for _, row := range r.Rows {
		byName[row.BE] = row
		if row.OvershootFrac <= 0 {
			t.Errorf("%s: no overshoot (%s) — Fig. 2's premise requires all co-runners to exceed the cap", row.BE, pct(row.OvershootFrac))
		}
	}
	// Graph is the most power-hungry co-runner.
	for _, other := range []string{"lstm", "rnn", "pbzip"} {
		if byName["graph"].ServerPowerW <= byName[other].ServerPowerW {
			t.Errorf("graph (%0.1f W) should out-draw %s (%0.1f W)", byName["graph"].ServerPowerW, other, byName[other].ServerPowerW)
		}
	}
}

func TestFig3CappedThroughputOrdering(t *testing.T) {
	s := sharedSuite(t)
	r, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	drops := map[string]float64{}
	unc := map[string]float64{}
	for _, row := range r.Rows {
		drops[row.BE] = row.DropFrac
		unc[row.BE] = row.UncappedThr
	}
	// Paper: similar uncapped throughput across apps; under the cap LSTM
	// and RNN drop only a few percent while graph drops the most.
	for _, a := range []string{"lstm", "rnn", "graph", "pbzip"} {
		for _, b := range []string{"lstm", "rnn", "graph", "pbzip"} {
			if unc[a] > unc[b]*1.15 {
				t.Errorf("uncapped throughput should be similar: %s %.1f vs %s %.1f", a, unc[a], b, unc[b])
			}
		}
	}
	if drops["lstm"] > 0.10 || drops["rnn"] > 0.10 {
		t.Errorf("lstm/rnn drops too large: %s / %s", pct(drops["lstm"]), pct(drops["rnn"]))
	}
	if drops["graph"] < drops["pbzip"] || drops["graph"] < drops["lstm"] {
		t.Errorf("graph should drop the most: %v", drops)
	}
	if drops["graph"] < 0.15 {
		t.Errorf("graph drop %s too small to motivate power-aware placement", pct(drops["graph"]))
	}
}

func TestFig4RNNBeatsLSTMOnXapian(t *testing.T) {
	s := sharedSuite(t)
	r, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 18 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.MeanThr["rnn"] <= r.MeanThr["lstm"] {
		t.Errorf("rnn mean %.1f should beat lstm mean %.1f across the load spectrum", r.MeanThr["rnn"], r.MeanThr["lstm"])
	}
	// Throughput declines as the primary's load rises, for both apps.
	for _, app := range []string{"lstm", "rnn"} {
		var prev float64
		first := true
		for _, row := range r.Rows {
			if row.BE != app {
				continue
			}
			if !first && row.Thr > prev*1.1 {
				t.Errorf("%s: throughput should broadly decline with LC load (%.1f after %.1f)", app, row.Thr, prev)
			}
			prev = row.Thr
			first = false
		}
	}
}

func TestFig5CurvesAreConvexAndPathIsCheapest(t *testing.T) {
	s := sharedSuite(t)
	r, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 4 || len(r.ExpansionPath) != 4 {
		t.Fatalf("curves/path = %d/%d", len(r.Curves), len(r.ExpansionPath))
	}
	for _, c := range r.Curves {
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].Y >= c.Points[i-1].Y {
				t.Errorf("load %s: indifference curve not downward sloping", pct(c.LoadFrac))
			}
		}
	}
	// Higher load curves lie strictly outside lower ones at equal cores.
	lo, hi := r.Curves[0], r.Curves[len(r.Curves)-1]
	if hi.Points[0].Y <= lo.Points[0].Y {
		t.Error("iso-load curves should nest outward with load")
	}
	// Expansion path moves outward.
	for i := 1; i < len(r.ExpansionPath); i++ {
		if r.ExpansionPath[i].X <= r.ExpansionPath[i-1].X {
			t.Error("expansion path should move outward with load")
		}
	}
}

func TestFig6SparesShrinkWithLoad(t *testing.T) {
	s := sharedSuite(t)
	r, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Box) != 4 {
		t.Fatalf("box points = %d", len(r.Box))
	}
	for i := 1; i < len(r.Box); i++ {
		if r.Box[i].Secondary.X > r.Box[i-1].Secondary.X+1e-9 {
			t.Error("spare cores should shrink as the primary's load grows")
		}
	}
	// sphinx prefers ways: its least-power allocations hold relatively
	// more of the way budget than of the core budget.
	mid := r.Box[1]
	if mid.Primary.Y/r.TotalWays <= mid.Primary.X/r.TotalCores {
		t.Error("sphinx should hold proportionally more ways than cores")
	}
}

func TestFig8RSquaredInPaperBand(t *testing.T) {
	s := sharedSuite(t)
	r, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.PerfR2 < 0.8 || row.PerfR2 > 1.0 {
			t.Errorf("%s: perf R² %0.3f outside the paper's 0.8–1.0 band", row.App, row.PerfR2)
		}
		if row.PowerR2 < 0.8 || row.PowerR2 > 1.0 {
			t.Errorf("%s: power R² %0.3f outside the paper's 0.8–1.0 band", row.App, row.PowerR2)
		}
	}
}

func TestFig9to11PreferenceAnchors(t *testing.T) {
	s := sharedSuite(t)
	r, err := s.Fig9to11()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]PrefRow{}
	for _, row := range r.Rows {
		rows[row.App] = row
	}
	// Paper anchors (Section V-C): sphinx 0.2:0.8, lstm 0.13:0.87,
	// graph 0.8:0.2 indirect; sphinx direct 0.6:0.4.
	anchors := map[string]float64{"sphinx": 0.20, "lstm": 0.13, "graph": 0.80}
	for app, want := range anchors {
		got := rows[app].IndirectCores
		if got < want-0.08 || got > want+0.08 {
			t.Errorf("%s: indirect cores preference %0.2f, paper %0.2f", app, got, want)
		}
	}
	if d := rows["sphinx"].DirectCores; d < 0.52 || d > 0.68 {
		t.Errorf("sphinx direct cores preference %0.2f, paper 0.6", d)
	}
	// The paper's Fig. 9→11 pivot: without power, sphinx prefers cores;
	// with power, it prefers ways.
	if rows["sphinx"].DirectCores < 0.5 {
		t.Error("sphinx should prefer cores before accounting for power")
	}
	if rows["sphinx"].IndirectCores > 0.5 {
		t.Error("sphinx should prefer ways after accounting for power")
	}
}

func TestFig12PolicyImprovements(t *testing.T) {
	s := sharedSuite(t)
	r, err := s.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Paper: POM ≈ +8%, POColo ≈ +18% over Random. Require the ordering
	// and a meaningful fraction of the published magnitudes.
	if r.ImprovementPOM < 0.02 {
		t.Errorf("POM improvement %s too small (paper ≈ +8%%)", pct(r.ImprovementPOM))
	}
	if r.ImprovementPOColo < 0.10 {
		t.Errorf("POColo improvement %s too small (paper ≈ +18%%)", pct(r.ImprovementPOColo))
	}
	if r.ImprovementPOColo <= r.ImprovementPOM {
		t.Error("POColo must improve on POM")
	}
}

func TestFig13PowerUtilizationOrdering(t *testing.T) {
	s := sharedSuite(t)
	r, err := s.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Paper: Random ≈96% with frequent capping; POM/POColo lower.
	if r.Mean["random"] < 0.90 {
		t.Errorf("random power utilization %s suspiciously low", pct(r.Mean["random"]))
	}
	if r.Mean["pom"] >= r.Mean["random"] {
		t.Errorf("POM utilization %s should be below Random %s", pct(r.Mean["pom"]), pct(r.Mean["random"]))
	}
	if r.Mean["pocolo"] >= r.Mean["random"] {
		t.Errorf("POColo utilization %s should be below Random %s", pct(r.Mean["pocolo"]), pct(r.Mean["random"]))
	}
}

func TestFig14PlacementMatchesPaper(t *testing.T) {
	s := sharedSuite(t)
	r, err := s.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 16 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	if r.Placement["graph"] != "sphinx" {
		t.Errorf("graph → %s, paper says sphinx", r.Placement["graph"])
	}
	if r.Placement["lstm"] != "img-dnn" {
		t.Errorf("lstm → %s, paper says img-dnn", r.Placement["lstm"])
	}
	rest := map[string]bool{r.Placement["rnn"]: true, r.Placement["pbzip"]: true}
	if !rest["xapian"] || !rest["tpcc"] {
		t.Errorf("rnn/pbzip → %v, paper says xapian+tpcc", rest)
	}
	// POColo's per-server choice should be at or near the measured best:
	// within 10% of the best cell for that server.
	best := map[string]float64{}
	for _, c := range r.Cells {
		if c.MeanNorm > best[c.LC] {
			best[c.LC] = c.MeanNorm
		}
	}
	for _, c := range r.Cells {
		if c.Chosen && c.MeanNorm < best[c.LC]*0.90 {
			t.Errorf("%s: chose %s (%.3f) but best is %.3f", c.LC, c.BE, c.MeanNorm, best[c.LC])
		}
	}
}

func TestFig15TCOOrdering(t *testing.T) {
	s := sharedSuite(t)
	r, err := s.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	totals := map[string]float64{}
	for _, row := range r.Rows {
		totals[row.Policy] = row.TotalMonthlyUSD
	}
	// Paper ordering: POColo < POM < Random < Random(NoCap).
	if !(totals["pocolo"] < totals["pom"] && totals["pom"] < totals["random"] && totals["random"] < totals["random-nocap"]) {
		t.Errorf("TCO ordering broken: %v", totals)
	}
	for name, saving := range r.SavingsVs {
		if saving <= 0 {
			t.Errorf("POColo should save vs %s, got %s", name, pct(saving))
		}
	}
}

func TestSuiteErrors(t *testing.T) {
	s := sharedSuite(t)
	if _, err := s.Model("nope"); err == nil {
		t.Error("expected error for unknown model")
	}
	if _, err := s.Catalog.ByName("nope"); err == nil {
		t.Error("expected error for unknown spec")
	}
}
