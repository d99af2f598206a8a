package experiments

import (
	"fmt"
	"sort"

	"pocolo/internal/cluster"
	"pocolo/internal/parallel"
	"pocolo/internal/tco"
)

// Fig12Row is one (policy, LC server) best-effort throughput measurement.
type Fig12Row struct {
	Policy string
	LC     string
	// BEThrNorm is the co-runner's mean throughput normalized to its
	// standalone full-machine peak.
	BEThrNorm float64
}

// Fig12Result reproduces Fig. 12.
type Fig12Result struct {
	Rows []Fig12Row
	// Mean per policy across servers.
	Mean map[string]float64
	// ImprovementPOM and ImprovementPOColo are the relative gains over the
	// Random baseline (paper: ≈8% and ≈18%).
	ImprovementPOM    float64
	ImprovementPOColo float64
}

// Fig12 measures best-effort throughput under the three policies across
// the four-server cluster with the uniform 10–90% load distribution.
func (s *Suite) Fig12() (Fig12Result, error) {
	res := Fig12Result{Mean: make(map[string]float64)}
	if err := s.prefetchPolicies(cluster.Random, cluster.POM, cluster.POColo); err != nil {
		return res, err
	}
	for _, p := range []cluster.Policy{cluster.Random, cluster.POM, cluster.POColo} {
		run, err := s.policyRun(p)
		if err != nil {
			return res, err
		}
		for _, lcName := range cluster.SortedNames(run.Hosts) {
			m := run.Hosts[lcName]
			res.Rows = append(res.Rows, Fig12Row{
				Policy:    p.String(),
				LC:        lcName,
				BEThrNorm: m.BEMeanThr / 100, // BE peaks are calibrated to 100 ops/s
			})
		}
		res.Mean[p.String()] = run.BENormThroughput
	}
	base := res.Mean[cluster.Random.String()]
	if base > 0 {
		res.ImprovementPOM = res.Mean[cluster.POM.String()]/base - 1
		res.ImprovementPOColo = res.Mean[cluster.POColo.String()]/base - 1
	}
	return res, nil
}

// Table renders the result.
func (r Fig12Result) Table() Table {
	t := Table{
		Title: "Fig. 12: Best-effort throughput under Random / POM / POColo",
		Caption: fmt.Sprintf("Normalized to each BE app's standalone peak; uniform 10–90%% LC load. Mean: random %.3f, pom %.3f (%+.1f%%), pocolo %.3f (%+.1f%%). Paper: +8%% (POM), +18%% (POColo).",
			r.Mean["random"], r.Mean["pom"], r.ImprovementPOM*100, r.Mean["pocolo"], r.ImprovementPOColo*100),
		Header: []string{"policy", "LC server", "BE throughput (norm)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Policy, row.LC, f3(row.BEThrNorm)})
	}
	return t
}

// Fig13Row is one (policy, LC server) power-utilization measurement.
type Fig13Row struct {
	Policy    string
	LC        string
	PowerUtil float64
	CapEvents int
}

// Fig13Result reproduces Fig. 13.
type Fig13Result struct {
	Rows []Fig13Row
	Mean map[string]float64
}

// Fig13 reports each server's mean power draw normalized to its
// provisioned capacity under the three policies (shares Fig. 12's runs).
func (s *Suite) Fig13() (Fig13Result, error) {
	res := Fig13Result{Mean: make(map[string]float64)}
	if err := s.prefetchPolicies(cluster.Random, cluster.POM, cluster.POColo); err != nil {
		return res, err
	}
	for _, p := range []cluster.Policy{cluster.Random, cluster.POM, cluster.POColo} {
		run, err := s.policyRun(p)
		if err != nil {
			return res, err
		}
		for _, lcName := range cluster.SortedNames(run.Hosts) {
			m := run.Hosts[lcName]
			res.Rows = append(res.Rows, Fig13Row{
				Policy:    p.String(),
				LC:        lcName,
				PowerUtil: m.PowerUtil,
				CapEvents: m.CapEvents,
			})
		}
		res.Mean[p.String()] = run.MeanPowerUtil
	}
	return res, nil
}

// Table renders the result.
func (r Fig13Result) Table() Table {
	t := Table{
		Title: "Fig. 13: Server power draw normalized to provisioned capacity (lower is better)",
		Caption: fmt.Sprintf("Mean utilization: random %s, pom %s, pocolo %s. Paper: ≈96%% (Random) vs ≈88%% (POM/POColo).",
			pct(r.Mean["random"]), pct(r.Mean["pom"]), pct(r.Mean["pocolo"])),
		Header: []string{"policy", "LC server", "power / cap", "cap excursions"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Policy, row.LC, pct(row.PowerUtil), fmt.Sprint(row.CapEvents)})
	}
	return t
}

// Fig14Cell is one (LC, BE) pairing's mean total server throughput.
type Fig14Cell struct {
	LC, BE   string
	MeanNorm float64
	Chosen   bool // true if POColo's placement picked this pairing
}

// Fig14Result reproduces Fig. 14: POColo's choice against the exhaustive
// 4×4 placement study.
type Fig14Result struct {
	Cells     []Fig14Cell
	Placement map[string]string
	// BestBEPerLC maps each LC server to the BE app with the highest
	// measured mean total throughput.
	BestBEPerLC map[string]string
}

// Fig14 simulates all sixteen (LC, BE) pairings across the load sweep and
// marks POColo's chosen placement.
func (s *Suite) Fig14() (Fig14Result, error) {
	cfg := s.ClusterConfig(s.label("fig14"))
	placement, _, err := cluster.Place(cfg)
	if err != nil {
		return Fig14Result{}, err
	}
	res := Fig14Result{Placement: placement, BestBEPerLC: make(map[string]string)}
	// All sixteen (LC, BE) sweeps are independent: fan them through the
	// worker pool, then reduce in the fixed row-major order.
	lcs, bes := s.Catalog.LC(), s.Catalog.BE()
	pairs := make([]cluster.PairResult, len(lcs)*len(bes))
	err = parallel.ForEach(len(pairs), s.Parallel, func(i int) error {
		pr, err := cluster.RunPair(cfg, lcs[i/len(bes)], bes[i%len(bes)])
		if err != nil {
			return err
		}
		pairs[i] = pr
		return nil
	})
	if err != nil {
		return Fig14Result{}, err
	}
	best := make(map[string]float64)
	for i, pr := range pairs {
		lc, be := lcs[i/len(bes)], bes[i%len(bes)]
		cell := Fig14Cell{
			LC:       lc.Name,
			BE:       be.Name,
			MeanNorm: pr.Mean,
			Chosen:   placement[be.Name] == lc.Name,
		}
		res.Cells = append(res.Cells, cell)
		if pr.Mean > best[lc.Name] {
			best[lc.Name] = pr.Mean
			res.BestBEPerLC[lc.Name] = be.Name
		}
	}
	return res, nil
}

// Table renders the result.
func (r Fig14Result) Table() Table {
	var placements []string
	for _, be := range sortedKeys(r.Placement) {
		placements = append(placements, fmt.Sprintf("%s→%s", be, r.Placement[be]))
	}
	t := Table{
		Title:   "Fig. 14: Total server throughput for all placement combinations",
		Caption: fmt.Sprintf("Mean of (LC goodput + BE throughput), both normalized, over 10–90%% load. POColo placement: %v.", placements),
		Header:  []string{"LC server", "co-runner", "mean total (norm)", "POColo choice"},
	}
	for _, c := range r.Cells {
		chosen := ""
		if c.Chosen {
			chosen = "✔"
		}
		t.Rows = append(t.Rows, []string{c.LC, c.BE, f3(c.MeanNorm), chosen})
	}
	return t
}

// Fig15Row is one policy's amortized monthly TCO.
type Fig15Row struct {
	Policy string
	tco.Breakdown
}

// Fig15Result reproduces Fig. 15.
type Fig15Result struct {
	Rows []Fig15Row
	// SavingsVs maps a comparison policy to POColo's relative TCO saving
	// over it (paper: 12% vs Random(NoCap), 16% vs Random, 8% vs POM).
	SavingsVs map[string]float64
}

// Fig15 feeds the measured cluster results into the Hamilton TCO model.
// Policies are normalized to deliver constant aggregate throughput; the
// Random(NoCap) variant provisions every server for the worst-case 185 W
// instead of right-sizing.
func (s *Suite) Fig15() (Fig15Result, error) {
	if err := s.prefetchPolicies(cluster.Random, cluster.POM, cluster.POColo); err != nil {
		return Fig15Result{}, err
	}
	random, err := s.policyRun(cluster.Random)
	if err != nil {
		return Fig15Result{}, err
	}
	pom, err := s.policyRun(cluster.POM)
	if err != nil {
		return Fig15Result{}, err
	}
	pocolo, err := s.policyRun(cluster.POColo)
	if err != nil {
		return Fig15Result{}, err
	}

	// Per-server aggregate throughput (LC goodput + BE ops, normalized) and
	// mean power per policy.
	aggregate := func(r *cluster.Result) (thr, meanW, provW float64) {
		n := 0.0
		for _, lc := range s.Catalog.LC() {
			m, ok := r.Hosts[lc.Name]
			if !ok {
				continue
			}
			thr += m.LCOps/(lc.PeakLoad*m.DurationSec) + m.BEMeanThr/100
			meanW += m.MeanPowerW
			provW += lc.ProvisionedPowerW
			n++
		}
		return thr / n, meanW / n, provW / n
	}
	rThr, rW, rProv := aggregate(random)
	pThr, pW, _ := aggregate(pom)
	cThr, cW, _ := aggregate(pocolo)

	const noCapProvW = 185 // max provisioned power across the LC apps
	params := tco.Hamilton()
	ins := []tco.Input{
		{Name: "random-nocap", ProvisionedWPerServer: noCapProvW, MeanPowerWPerServer: rW, RelativeThroughput: rThr / cThr},
		{Name: "random", ProvisionedWPerServer: rProv, MeanPowerWPerServer: rW, RelativeThroughput: rThr / cThr},
		{Name: "pom", ProvisionedWPerServer: rProv, MeanPowerWPerServer: pW, RelativeThroughput: pThr / cThr},
		{Name: "pocolo", ProvisionedWPerServer: rProv, MeanPowerWPerServer: cW, RelativeThroughput: 1},
	}
	breakdowns, err := params.Compare(ins)
	if err != nil {
		return Fig15Result{}, err
	}
	res := Fig15Result{SavingsVs: make(map[string]float64)}
	var pocoloTotal float64
	for _, b := range breakdowns {
		res.Rows = append(res.Rows, Fig15Row{Policy: b.Name, Breakdown: b})
		if b.Name == "pocolo" {
			pocoloTotal = b.TotalMonthlyUSD
		}
	}
	for _, b := range breakdowns {
		if b.Name != "pocolo" {
			res.SavingsVs[b.Name] = 1 - pocoloTotal/b.TotalMonthlyUSD
		}
	}
	return res, nil
}

// Table renders the result.
func (r Fig15Result) Table() Table {
	t := Table{
		Title: "Fig. 15: Amortized monthly datacenter TCO (constant delivered throughput)",
		Caption: fmt.Sprintf("Hamilton model: 100k servers, $1450/server, $9/W, 7¢/kWh, PUE 1.1. POColo saves %s vs Random(NoCap), %s vs Random, %s vs POM (paper: 12%%, 16%%, 8%%).",
			pct(r.SavingsVs["random-nocap"]), pct(r.SavingsVs["random"]), pct(r.SavingsVs["pom"])),
		Header: []string{"policy", "servers", "server $M/mo", "power infra $M/mo", "energy $M/mo", "total $M/mo"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Policy,
			fmt.Sprintf("%.0f", row.Servers),
			f2(row.ServerMonthlyUSD / 1e6),
			f2(row.PowerInfraMonthlyUSD / 1e6),
			f2(row.EnergyMonthlyUSD / 1e6),
			f2(row.TotalMonthlyUSD / 1e6),
		})
	}
	return t
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
