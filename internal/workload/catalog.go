package workload

import (
	"fmt"
	"sort"

	"pocolo/internal/machine"
)

// Catalog holds the calibrated application specs for one platform.
type Catalog struct {
	lc     []*Spec
	be     []*Spec
	byName map[string]*Spec
	ref    machine.Config
}

// powerCoefficients derives the ground-truth per-core and per-way power
// coefficients from two calibration targets: the total dynamic power the
// application draws on the full machine (Table II peak power minus the
// platform idle floor) and the way-to-core power ratio r = pw/pc implied by
// the paper's published indirect-utility preference vectors.
func powerCoefficients(cfg machine.Config, fullDynamicW, wayToCore, kappa float64) (pc, pw float64) {
	c := float64(cfg.Cores)
	w := float64(cfg.LLCWays)
	pc = fullDynamicW / (c*(1+kappa) + w*wayToCore)
	pw = wayToCore * pc
	return pc, pw
}

// wayToCoreRatio solves pw/pc from a direct-preference pair (αc, αw) and an
// indirect-preference target (prefC, prefW): prefC/prefW = (αc/pc)/(αw/pw).
func wayToCoreRatio(alphaC, alphaW, prefC, prefW float64) float64 {
	return (prefC / prefW) * (alphaW / alphaC)
}

// lcSpec builds one latency-critical spec and calibrates it.
func lcSpec(cfg machine.Config, s Spec, prefC, prefW float64) (*Spec, error) {
	s.Class = LatencyCritical
	r := wayToCoreRatio(s.AlphaCores, s.AlphaWays, prefC, prefW)
	s.PowerPerCoreW, s.PowerPerWayW = powerCoefficients(cfg, s.ProvisionedPowerW-cfg.IdlePowerW, r, s.PowerKappa)
	if err := s.calibrate(cfg); err != nil {
		return nil, err
	}
	return &s, nil
}

// beSpec builds one best-effort spec and calibrates it. fullDynamicW is the
// app's saturated dynamic power on the full machine.
func beSpec(cfg machine.Config, s Spec, prefC, prefW, fullDynamicW float64) (*Spec, error) {
	s.Class = BestEffort
	r := wayToCoreRatio(s.AlphaCores, s.AlphaWays, prefC, prefW)
	s.PowerPerCoreW, s.PowerPerWayW = powerCoefficients(cfg, fullDynamicW, r, s.PowerKappa)
	if err := s.calibrate(cfg); err != nil {
		return nil, err
	}
	return &s, nil
}

// Defaults builds the paper's eight applications calibrated against the
// given platform. Targets:
//
//   - Table II peaks, SLOs, and provisioned powers for the LC apps;
//   - the Section V-C indirect preference vectors (sphinx 0.2:0.8 cores:ways,
//     LSTM 0.13:0.87, Graph 0.8:0.2) plus complementary vectors for the rest
//     so the published Fig. 14 placement (Graph→sphinx, LSTM→img-dnn,
//     RNN/Pbzip→{xapian, TPC-C}) is the optimum;
//   - Fig. 2/3 power behaviour: all BE apps overshoot an off-peak xapian
//     server's capacity, with LSTM/RNN barely power-limited and Graph the
//     most power-hungry.
func Defaults(cfg machine.Config) (*Catalog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var lcs []*Spec

	imgdnn, err := lcSpec(cfg, Spec{
		Name:              "img-dnn",
		Domain:            "image recognition",
		AlphaCores:        0.50,
		AlphaWays:         0.50,
		FreqExp:           0.90,
		EtaCores:          0.10,
		EtaWays:           0.06,
		PowerKappa:        0.08,
		PeakLoad:          3500,
		SLO:               SLO{P95Ms: 10, P99Ms: 20},
		ProvisionedPowerW: 133,
	}, 0.70, 0.30)
	if err != nil {
		return nil, err
	}
	lcs = append(lcs, imgdnn)

	sphinx, err := lcSpec(cfg, Spec{
		Name:              "sphinx",
		Domain:            "speech recognition",
		AlphaCores:        0.60,
		AlphaWays:         0.40,
		FreqExp:           0.85,
		EtaCores:          0.08,
		EtaWays:           0.10,
		PowerKappa:        0.10,
		PeakLoad:          10,
		SLO:               SLO{P95Ms: 1800, P99Ms: 3030},
		ProvisionedPowerW: 182,
	}, 0.20, 0.80)
	if err != nil {
		return nil, err
	}
	lcs = append(lcs, sphinx)

	xapian, err := lcSpec(cfg, Spec{
		Name:              "xapian",
		Domain:            "web search",
		AlphaCores:        0.55,
		AlphaWays:         0.45,
		FreqExp:           0.90,
		EtaCores:          0.12,
		EtaWays:           0.08,
		PowerKappa:        0.08,
		PeakLoad:          4000,
		SLO:               SLO{P95Ms: 2.588, P99Ms: 4.020},
		ProvisionedPowerW: 154,
	}, 0.33, 0.67)
	if err != nil {
		return nil, err
	}
	lcs = append(lcs, xapian)

	tpcc, err := lcSpec(cfg, Spec{
		Name:              "tpcc",
		Domain:            "persistent database",
		AlphaCores:        0.50,
		AlphaWays:         0.50,
		FreqExp:           0.70,
		EtaCores:          0.15,
		EtaWays:           0.10,
		PowerKappa:        0.06,
		PeakLoad:          8000,
		SLO:               SLO{P95Ms: 51, P99Ms: 707},
		ProvisionedPowerW: 133,
	}, 0.40, 0.60)
	if err != nil {
		return nil, err
	}
	lcs = append(lcs, tpcc)

	var bes []*Spec

	lstm, err := beSpec(cfg, Spec{
		Name:       "lstm",
		Domain:     "deep learning training",
		AlphaCores: 0.32,
		AlphaWays:  0.68,
		FreqExp:    0.75,
		EtaCores:   0.06,
		EtaWays:    0.12,
		PowerKappa: 0.08,
		PeakLoad:   100,
	}, 0.13, 0.87, 109)
	if err != nil {
		return nil, err
	}
	bes = append(bes, lstm)

	rnn, err := beSpec(cfg, Spec{
		Name:       "rnn",
		Domain:     "deep learning training",
		AlphaCores: 0.60,
		AlphaWays:  0.40,
		FreqExp:    0.80,
		EtaCores:   0.08,
		EtaWays:    0.08,
		PowerKappa: 0.08,
		PeakLoad:   100,
	}, 0.55, 0.45, 109)
	if err != nil {
		return nil, err
	}
	bes = append(bes, rnn)

	graph, err := beSpec(cfg, Spec{
		Name:       "graph",
		Domain:     "graph analytics",
		AlphaCores: 0.75,
		AlphaWays:  0.25,
		FreqExp:    0.60,
		EtaCores:   0.14,
		EtaWays:    0.05,
		PowerKappa: 0.12,
		PeakLoad:   100,
	}, 0.80, 0.20, 150)
	if err != nil {
		return nil, err
	}
	bes = append(bes, graph)

	pbzip, err := beSpec(cfg, Spec{
		Name:       "pbzip",
		Domain:     "compression",
		AlphaCores: 0.70,
		AlphaWays:  0.30,
		FreqExp:    0.95,
		EtaCores:   0.05,
		EtaWays:    0.05,
		PowerKappa: 0.08,
		PeakLoad:   100,
	}, 0.60, 0.40, 117)
	if err != nil {
		return nil, err
	}
	bes = append(bes, pbzip)

	cat := &Catalog{lc: lcs, be: bes, byName: make(map[string]*Spec), ref: cfg}
	for _, s := range lcs {
		cat.byName[s.Name] = s
	}
	for _, s := range bes {
		cat.byName[s.Name] = s
	}
	return cat, nil
}

// MustDefaults is Defaults on the Table I platform; it panics on error and
// is intended for tests and examples.
func MustDefaults() *Catalog {
	c, err := Defaults(machine.XeonE52650())
	if err != nil {
		panic(err)
	}
	return c
}

// LC returns the latency-critical specs in stable order
// (img-dnn, sphinx, xapian, tpcc).
func (c *Catalog) LC() []*Spec { return append([]*Spec(nil), c.lc...) }

// BE returns the best-effort specs in stable order
// (lstm, rnn, graph, pbzip).
func (c *Catalog) BE() []*Spec { return append([]*Spec(nil), c.be...) }

// ByName looks up a spec by its name.
func (c *Catalog) ByName(name string) (*Spec, error) {
	s, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown application %q (have %v)", name, c.Names())
	}
	return s, nil
}

// Names returns all application names in sorted order.
func (c *Catalog) Names() []string {
	names := make([]string, 0, len(c.byName))
	for n := range c.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
