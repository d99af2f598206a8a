package experiments

import (
	"fmt"

	"pocolo/internal/utility"
)

// Fig5Curve is one iso-load indifference curve of the primary application.
type Fig5Curve struct {
	LoadFrac float64
	Points   []utility.CurvePoint
}

// Fig5Result reproduces Fig. 5: sphinx's indifference curves and the
// least-power expansion path through them.
type Fig5Result struct {
	App           string
	Curves        []Fig5Curve
	ExpansionPath []utility.CurvePoint
	// PathLoads labels each expansion-path point with its load fraction.
	PathLoads []float64
}

// Fig5 computes iso-load curves at 20%–80% of sphinx's peak plus the
// least-power allocation per load (the dotted line the server manager
// walks).
func (s *Suite) Fig5() (Fig5Result, error) {
	model, err := s.Model("sphinx")
	if err != nil {
		return Fig5Result{}, err
	}
	spec, err := s.Catalog.ByName("sphinx")
	if err != nil {
		return Fig5Result{}, err
	}
	res := Fig5Result{App: "sphinx"}
	var targets []float64
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8} {
		target := frac * spec.PeakLoad
		pts, err := model.IndifferenceCurve(target, 1, float64(s.Machine.Cores), 12)
		if err != nil {
			return Fig5Result{}, err
		}
		res.Curves = append(res.Curves, Fig5Curve{LoadFrac: frac, Points: pts})
		targets = append(targets, target)
		res.PathLoads = append(res.PathLoads, frac)
	}
	res.ExpansionPath, err = model.ExpansionPath(targets)
	if err != nil {
		return Fig5Result{}, err
	}
	return res, nil
}

// Table renders the result.
func (r Fig5Result) Table() Table {
	t := Table{
		Title:   fmt.Sprintf("Fig. 5: Indifference curves and least-power path for %s", r.App),
		Caption: "Each iso-load row lists (cores, ways) pairs giving the same performance; the path rows are the least-power allocation per load.",
		Header:  []string{"kind", "load", "cores", "ways"},
	}
	for _, c := range r.Curves {
		for _, p := range c.Points {
			t.Rows = append(t.Rows, []string{"iso-load", pct(c.LoadFrac), f2(p.X), f2(p.Y)})
		}
	}
	for i, p := range r.ExpansionPath {
		t.Rows = append(t.Rows, []string{"min-power", pct(r.PathLoads[i]), f2(p.X), f2(p.Y)})
	}
	return t
}

// Fig6Result reproduces Fig. 6: the Edgeworth box between the primary's
// least-power allocations and the spare left for the secondary.
type Fig6Result struct {
	App        string
	TotalCores float64
	TotalWays  float64
	Box        []utility.BoxPoint
	LoadFracs  []float64
}

// Fig6 computes the Edgeworth-box geometry for sphinx across its load
// range.
func (s *Suite) Fig6() (Fig6Result, error) {
	model, err := s.Model("sphinx")
	if err != nil {
		return Fig6Result{}, err
	}
	spec, err := s.Catalog.ByName("sphinx")
	if err != nil {
		return Fig6Result{}, err
	}
	res := Fig6Result{
		App:        "sphinx",
		TotalCores: float64(s.Machine.Cores),
		TotalWays:  float64(s.Machine.LLCWays),
	}
	var targets []float64
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8} {
		targets = append(targets, frac*spec.PeakLoad)
		res.LoadFracs = append(res.LoadFracs, frac)
	}
	res.Box, err = utility.EdgeworthBox(model, targets, res.TotalCores, res.TotalWays)
	if err != nil {
		return Fig6Result{}, err
	}
	return res, nil
}

// Table renders the result.
func (r Fig6Result) Table() Table {
	t := Table{
		Title:   fmt.Sprintf("Fig. 6: Edgeworth box — %s primary vs best-effort spare", r.App),
		Caption: fmt.Sprintf("Box totals: %.0f cores × %.0f ways. Primary rows use the lower-left origin, spare rows the upper-right.", r.TotalCores, r.TotalWays),
		Header:  []string{"load", "primary cores", "primary ways", "spare cores", "spare ways"},
	}
	for i, b := range r.Box {
		t.Rows = append(t.Rows, []string{
			pct(r.LoadFracs[i]), f2(b.Primary.X), f2(b.Primary.Y), f2(b.Secondary.X), f2(b.Secondary.Y),
		})
	}
	return t
}

// Fig8Row is one application's goodness of fit.
type Fig8Row struct {
	App     string
	Class   string
	PerfR2  float64
	PowerR2 float64
	Samples int
}

// Fig8Result reproduces Fig. 8 (a and b).
type Fig8Result struct {
	Rows []Fig8Row
}

// Fig8 reports the coefficient of determination of the fitted performance
// and power models for every application.
func (s *Suite) Fig8() (Fig8Result, error) {
	var res Fig8Result
	for _, spec := range append(s.Catalog.LC(), s.Catalog.BE()...) {
		m, err := s.Model(spec.Name)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, Fig8Row{
			App:     spec.Name,
			Class:   spec.Class.String(),
			PerfR2:  m.PerfR2,
			PowerR2: m.PowerR2,
			Samples: m.N,
		})
	}
	return res, nil
}

// Table renders the result.
func (r Fig8Result) Table() Table {
	t := Table{
		Title:   "Fig. 8: Goodness of fit (R²) of the Cobb-Douglas indirect utility model",
		Caption: "The paper reports 0.8–0.95 for performance and 0.8–0.98 for power.",
		Header:  []string{"app", "class", "R² performance", "R² power", "samples"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.App, row.Class, f3(row.PerfR2), f3(row.PowerR2), fmt.Sprint(row.Samples)})
	}
	return t
}

// PrefRow is one application's fitted preference decomposition.
type PrefRow struct {
	App string
	// DirectCores/DirectWays: α-only preferences (Fig. 9).
	DirectCores, DirectWays float64
	// PowerCores/PowerWays: power-coefficient shares (Fig. 10).
	PowerCores, PowerWays float64
	// IndirectCores/IndirectWays: (α/p)-normalized preferences (Fig. 11).
	IndirectCores, IndirectWays float64
}

// Fig9to11Result reproduces Figs. 9, 10, and 11 as one parameter table.
type Fig9to11Result struct {
	Rows []PrefRow
}

// Fig9to11 decomposes every fitted model into the paper's three bar
// charts: direct utility (α), power needs (p), and indirect utility (α/p).
func (s *Suite) Fig9to11() (Fig9to11Result, error) {
	var res Fig9to11Result
	for _, spec := range append(s.Catalog.LC(), s.Catalog.BE()...) {
		m, err := s.Model(spec.Name)
		if err != nil {
			return res, err
		}
		direct := m.DirectPreference()
		indirect := m.Preference()
		pSum := m.P[0] + m.P[1]
		res.Rows = append(res.Rows, PrefRow{
			App:           spec.Name,
			DirectCores:   direct[0],
			DirectWays:    direct[1],
			PowerCores:    m.P[0] / pSum,
			PowerWays:     m.P[1] / pSum,
			IndirectCores: indirect[0],
			IndirectWays:  indirect[1],
		})
	}
	return res, nil
}

// Table renders the result.
func (r Fig9to11Result) Table() Table {
	t := Table{
		Title:   "Figs. 9–11: Direct utility (α), power needs (p), and indirect utility (α/p) preferences",
		Caption: "Shares normalized to sum to 1 per pair. Paper anchors: sphinx indirect 0.2:0.8, lstm 0.13:0.87, graph 0.8:0.2.",
		Header:  []string{"app", "α cores", "α ways", "p cores", "p ways", "α/p cores", "α/p ways"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.App,
			f2(row.DirectCores), f2(row.DirectWays),
			f2(row.PowerCores), f2(row.PowerWays),
			f2(row.IndirectCores), f2(row.IndirectWays),
		})
	}
	return t
}
