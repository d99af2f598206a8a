package cluster

import (
	"fmt"
	"sort"
	"strings"

	"pocolo/internal/memo"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
	"pocolo/internal/utility"
	"pocolo/internal/workload"
)

// The sweep memo caches finished cluster and pair runs process-wide. Every
// simulation here is a pure function of its configuration — machine, specs,
// fitted models, dwell, and seed fully determine the noise streams
// and therefore the result — so two runs with identical fingerprints are
// interchangeable. The evaluation suite leans on this: Fig. 14's sixteen
// RunPair sweeps are simulated once and shared across repeated figure
// regenerations (and with the examples and the public API), and the three
// policy runs behind Figs. 12/13/15 are shared across fresh Suites with the
// same seed instead of re-simulated per figure.
//
// Each map holds up to 4,096 runs and is cleared wholesale when full (the
// workload is a small set of configs hit many times, not a scan).
var (
	pairRuns      = memo.New[string, PairResult](4096)
	placementRuns = memo.New[string, Result](4096)
)

// ResetMemo empties the run memos and the delta-cell memo and zeroes
// their counters, so the next runs and matrix builds start cold, as in a
// fresh process. Interned fingerprint ids stay valid: a live
// MatrixBuilder's clean rows and columns stay clean.
func ResetMemo() {
	pairRuns.Reset()
	placementRuns.Reset()
	cells.Reset()
}

// memoRun serves key's run from cache, calling run on a miss. The cache
// keeps a private deep copy: the caller that ran it gets the original
// and every hit gets a fresh copy, so callers may mutate what they get
// back.
func memoRun[V any](cache *memo.Cache[string, V], key string, copyOf func(V) V, run func() (V, error)) (V, error) {
	var ran V
	v, hit, err := cache.Get(key, func() (V, error) {
		var err error
		ran, err = run()
		return copyOf(ran), err
	})
	if err != nil || !hit {
		return ran, err
	}
	return copyOf(v), nil
}

// fingerprintConfig writes the cacheable identity of a cluster Config: the
// machine, dwell, seed, slack guard, shard layout, and every involved
// spec and fitted model by value. Parallel is deliberately excluded —
// worker count must not change results. Invariants is included even
// though it does not perturb results: a run requesting invariant checks
// must not silently satisfy itself from a cache entry produced without
// them.
func fingerprintConfig(w *strings.Builder, cfg *Config) {
	// Shard is included because the pod layout changes the POColo
	// placement: a result computed under one layout must not satisfy a
	// request made under another.
	fmt.Fprintf(w, "m=%+v|dwell=%d|seed=%d|slack=%g|inv=%t|shard=%+v", cfg.Machine, cfg.Dwell, cfg.Seed, cfg.TargetSlack, cfg.Invariants, cfg.Shard)
	writeSpecs := func(label string, specs []*workload.Spec) {
		fmt.Fprintf(w, "|%s=", label)
		for _, s := range specs {
			fmt.Fprintf(w, "%+v;", *s)
		}
	}
	writeSpecs("lc", cfg.LC)
	writeSpecs("be", cfg.BE)
	names := make([]string, 0, len(cfg.Models))
	for n := range cfg.Models {
		names = append(names, n)
	}
	sort.Strings(names)
	w.WriteString("|models=")
	for _, n := range names {
		writeModel(w, n, cfg.Models[n])
	}
}

func writeModel(w *strings.Builder, name string, m *utility.Model) {
	if m == nil {
		fmt.Fprintf(w, "%s:nil;", name)
		return
	}
	fmt.Fprintf(w, "%s:%+v;", name, *m)
}

// placementKey fingerprints a RunPlacement call.
func placementKey(cfg *Config, placement map[string]string, mgmt servermgr.LCPolicy) string {
	var w strings.Builder
	w.Grow(2048)
	fmt.Fprintf(&w, "placement|mgmt=%d|", mgmt)
	bes := make([]string, 0, len(placement))
	for be := range placement {
		bes = append(bes, be)
	}
	sort.Strings(bes)
	for _, be := range bes {
		fmt.Fprintf(&w, "%s->%s;", be, placement[be])
	}
	fingerprintConfig(&w, cfg)
	return w.String()
}

// pairKey fingerprints a RunPair call.
func pairKey(cfg *Config, lc, be *workload.Spec) string {
	var w strings.Builder
	w.Grow(2048)
	fmt.Fprintf(&w, "pair|lc=%+v|be=%+v|", *lc, *be)
	fingerprintConfig(&w, cfg)
	return w.String()
}

func copyResult(r Result) Result {
	out := r
	if r.Placement != nil {
		out.Placement = make(map[string]string, len(r.Placement))
		for k, v := range r.Placement {
			out.Placement[k] = v
		}
	}
	if r.Hosts != nil {
		out.Hosts = make(map[string]sim.Metrics, len(r.Hosts))
		for k, v := range r.Hosts {
			out.Hosts[k] = copyMetrics(v)
		}
	}
	return out
}

func copyMetrics(m sim.Metrics) sim.Metrics {
	out := m
	if m.BEOpsBy != nil {
		out.BEOpsBy = make(map[string]float64, len(m.BEOpsBy))
		for k, v := range m.BEOpsBy {
			out.BEOpsBy[k] = v
		}
	}
	return out
}

func copyPairResult(pr PairResult) PairResult {
	out := pr
	out.Loads = append([]float64(nil), pr.Loads...)
	out.TotalNorm = append([]float64(nil), pr.TotalNorm...)
	return out
}
