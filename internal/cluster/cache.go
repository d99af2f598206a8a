package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"

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
// The memo deep-copies on both store and load, so callers may mutate what
// they get back. Disable it (SetMemo) when measuring raw simulation cost or
// when proving sequential/parallel equivalence on live runs.
var memo = struct {
	sync.Mutex
	enabled      bool
	pairs        map[string]PairResult
	placements   map[string]Result
	hits, misses int
}{
	enabled:    true,
	pairs:      make(map[string]PairResult),
	placements: make(map[string]Result),
}

// memoLimit bounds each memo map; a full map is cleared wholesale (the
// workload is a small set of configs hit many times, not a scan).
const memoLimit = 4096

// SetMemo enables or disables the process-wide run memo. Disabling also
// clears it. Returns the previous setting.
func SetMemo(enabled bool) bool {
	memo.Lock()
	defer memo.Unlock()
	prev := memo.enabled
	memo.enabled = enabled
	if !enabled {
		memo.pairs = make(map[string]PairResult)
		memo.placements = make(map[string]Result)
	}
	return prev
}

// ResetMemo clears the memo and its counters without changing whether it
// is enabled.
func ResetMemo() {
	memo.Lock()
	defer memo.Unlock()
	memo.pairs = make(map[string]PairResult)
	memo.placements = make(map[string]Result)
	memo.hits, memo.misses = 0, 0
}

// MemoStats reports cache hits and misses since the last reset.
func MemoStats() (hits, misses int) {
	memo.Lock()
	defer memo.Unlock()
	return memo.hits, memo.misses
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

func memoGetPlacement(key string) (Result, bool) {
	memo.Lock()
	defer memo.Unlock()
	if !memo.enabled {
		return Result{}, false
	}
	res, ok := memo.placements[key]
	if ok {
		memo.hits++
		return copyResult(res), true
	}
	memo.misses++
	return Result{}, false
}

func memoPutPlacement(key string, res Result) {
	memo.Lock()
	defer memo.Unlock()
	if !memo.enabled {
		return
	}
	if len(memo.placements) >= memoLimit {
		memo.placements = make(map[string]Result)
	}
	memo.placements[key] = copyResult(res)
}

func memoGetPair(key string) (PairResult, bool) {
	memo.Lock()
	defer memo.Unlock()
	if !memo.enabled {
		return PairResult{}, false
	}
	pr, ok := memo.pairs[key]
	if ok {
		memo.hits++
		return copyPairResult(pr), true
	}
	memo.misses++
	return PairResult{}, false
}

func memoPutPair(key string, pr PairResult) {
	memo.Lock()
	defer memo.Unlock()
	if !memo.enabled {
		return
	}
	if len(memo.pairs) >= memoLimit {
		memo.pairs = make(map[string]PairResult)
	}
	memo.pairs[key] = copyPairResult(pr)
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
