package workload

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"pocolo/internal/machine"
)

// A catalog can be defined outside the source tree: the JSON form carries
// the same calibration inputs the built-in Defaults uses (Cobb-Douglas
// shape, contention, latency targets, power targets, and the indirect
// preference vector), and loading calibrates the ground-truth models
// against a platform exactly like the built-in applications. This is how a
// user points Pocolo's simulation at their own application mix.

// catalogFile is the on-disk envelope.
type catalogFile struct {
	Format       string     `json:"format"`
	Applications []specJSON `json:"applications"`
}

// specJSON is the serialized calibration input for one application.
type specJSON struct {
	Name   string `json:"name"`
	Class  string `json:"class"` // "latency-critical" or "best-effort"
	Domain string `json:"domain,omitempty"`

	AlphaCores float64 `json:"alphaCores"`
	AlphaWays  float64 `json:"alphaWays"`
	FreqExp    float64 `json:"freqExp"`
	EtaCores   float64 `json:"etaCores"`
	EtaWays    float64 `json:"etaWays"`
	PowerKappa float64 `json:"powerKappa"`

	PeakLoad float64 `json:"peakLoad"`

	// PrefCores/PrefWays is the target indirect preference vector
	// (normalized; performance per watt shares).
	PrefCores float64 `json:"prefCores"`
	PrefWays  float64 `json:"prefWays"`

	// Latency-critical fields.
	SLOP95Ms          float64 `json:"sloP95Ms,omitempty"`
	SLOP99Ms          float64 `json:"sloP99Ms,omitempty"`
	ProvisionedPowerW float64 `json:"provisionedPowerW,omitempty"`

	// Best-effort field: saturated dynamic power on the full machine.
	FullDynamicPowerW float64 `json:"fullDynamicPowerW,omitempty"`
}

// catalogFormatMarker identifies the envelope and its major revision.
const catalogFormatMarker = "pocolo-catalog/v1"

// LoadCatalogFile loads the JSON catalog at path, or the built-in
// Defaults when path is empty, calibrated against the platform.
func LoadCatalogFile(path string, cfg machine.Config) (*Catalog, error) {
	if path == "" {
		return Defaults(cfg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCatalog(f, cfg)
}

// LoadCatalog reads a JSON application catalog and calibrates it against
// the platform.
func LoadCatalog(r io.Reader, cfg machine.Config) (*Catalog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var file catalogFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("workload: decoding catalog: %w", err)
	}
	if file.Format != catalogFormatMarker {
		return nil, fmt.Errorf("workload: unknown catalog format %q (want %q)", file.Format, catalogFormatMarker)
	}
	if len(file.Applications) == 0 {
		return nil, errors.New("workload: catalog has no applications")
	}
	cat := &Catalog{byName: make(map[string]*Spec), ref: cfg}
	for i, sj := range file.Applications {
		if sj.Name == "" {
			return nil, fmt.Errorf("workload: application %d has no name", i)
		}
		if _, dup := cat.byName[sj.Name]; dup {
			return nil, fmt.Errorf("workload: duplicate application %q", sj.Name)
		}
		if sj.PrefCores <= 0 || sj.PrefWays <= 0 {
			return nil, fmt.Errorf("workload: %s: preference shares must be positive", sj.Name)
		}
		base := Spec{
			Name:       sj.Name,
			Domain:     sj.Domain,
			AlphaCores: sj.AlphaCores,
			AlphaWays:  sj.AlphaWays,
			FreqExp:    sj.FreqExp,
			EtaCores:   sj.EtaCores,
			EtaWays:    sj.EtaWays,
			PowerKappa: sj.PowerKappa,
			PeakLoad:   sj.PeakLoad,
		}
		var spec *Spec
		var err error
		switch sj.Class {
		case "latency-critical":
			if sj.SLOP99Ms <= 0 || sj.SLOP95Ms <= 0 {
				return nil, fmt.Errorf("workload: %s: latency-critical apps need positive SLOs", sj.Name)
			}
			if sj.ProvisionedPowerW <= cfg.IdlePowerW {
				return nil, fmt.Errorf("workload: %s: provisioned power %v W does not clear the %v W idle floor", sj.Name, sj.ProvisionedPowerW, cfg.IdlePowerW)
			}
			base.SLO = SLO{P95Ms: sj.SLOP95Ms, P99Ms: sj.SLOP99Ms}
			base.ProvisionedPowerW = sj.ProvisionedPowerW
			spec, err = lcSpec(cfg, base, sj.PrefCores, sj.PrefWays)
		case "best-effort":
			if sj.FullDynamicPowerW <= 0 {
				return nil, fmt.Errorf("workload: %s: best-effort apps need a positive fullDynamicPowerW", sj.Name)
			}
			spec, err = beSpec(cfg, base, sj.PrefCores, sj.PrefWays, sj.FullDynamicPowerW)
		default:
			return nil, fmt.Errorf("workload: %s: unknown class %q", sj.Name, sj.Class)
		}
		if err != nil {
			return nil, fmt.Errorf("workload: %s: %w", sj.Name, err)
		}
		switch spec.Class {
		case LatencyCritical:
			cat.lc = append(cat.lc, spec)
		case BestEffort:
			cat.be = append(cat.be, spec)
		}
		cat.byName[spec.Name] = spec
	}
	return cat, nil
}

// ExportCatalog writes the catalog's calibration inputs as JSON, so a
// built-in or programmatically built catalog can be saved, edited, and
// reloaded.
func ExportCatalog(w io.Writer, cat *Catalog) error {
	if cat == nil || len(cat.byName) == 0 {
		return errors.New("workload: nothing to export")
	}
	cfg := cat.ref
	file := catalogFile{Format: catalogFormatMarker}
	for _, spec := range append(cat.LC(), cat.BE()...) {
		prefC, prefW := spec.PreferenceTruth()
		sj := specJSON{
			Name:       spec.Name,
			Domain:     spec.Domain,
			AlphaCores: spec.AlphaCores,
			AlphaWays:  spec.AlphaWays,
			FreqExp:    spec.FreqExp,
			EtaCores:   spec.EtaCores,
			EtaWays:    spec.EtaWays,
			PowerKappa: spec.PowerKappa,
			PeakLoad:   spec.PeakLoad,
			PrefCores:  prefC,
			PrefWays:   prefW,
		}
		switch spec.Class {
		case LatencyCritical:
			sj.Class = "latency-critical"
			sj.SLOP95Ms = spec.SLO.P95Ms
			sj.SLOP99Ms = spec.SLO.P99Ms
			sj.ProvisionedPowerW = spec.ProvisionedPowerW
		case BestEffort:
			sj.Class = "best-effort"
			// Recover the full-machine dynamic power from the calibrated
			// coefficients (the inverse of powerCoefficients).
			c := float64(cfg.Cores)
			ways := float64(cfg.LLCWays)
			sj.FullDynamicPowerW = spec.PowerPerCoreW*c*(1+spec.PowerKappa) + spec.PowerPerWayW*ways
		default:
			return fmt.Errorf("workload: %s: unknown class %v", spec.Name, spec.Class)
		}
		file.Applications = append(file.Applications, sj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(file)
}
