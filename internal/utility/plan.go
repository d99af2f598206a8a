package utility

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// This file implements the precomputed allocation planner. The server
// manager's 1 s control loop (Section IV-C) needs, every tick, the integer
// allocation that reaches the current load target — at the least fitted
// dynamic power for the POM policy, or the whole minimal feasible frontier
// for the power-unaware baseline. Re-deriving either from scratch walks the
// full knob grid with one math.Pow per resource per candidate, which costs
// more than an entire simulated engine-second. A Plan amortizes that walk:
// built once per (model, caps) pair, it quantizes the target-perf domain
// into the finite set of thresholds the integer grid induces and stores the
// least-power answer per cell, so the per-tick search becomes an O(log n)
// binary search (or an O(1) warm-start re-check when the target stays in
// the cell the previous tick landed in).
//
// Equivalence guarantee: every perf/power number a Plan stores is computed
// with exactly the floating-point operation sequence Model.Perf and
// Model.DynamicPower use — the per-axis pow tables are folded left to
// right in resource order, so ((α₀·c^α₁)·w^α₂) associates identically —
// and the frontier sweep reproduces the exact search's tie-breaking
// (strictly smaller power wins; equal power keeps the earlier point in
// walk order). Planner answers are therefore bit-identical to
// Model.IntegerMinPowerAlloc and to the manager's indifference-frontier
// scan, not merely close; the golden tests in plan_test.go and the
// servermgr/cluster equivalence suites assert this across fitted, random,
// and hostile models.

// MaxPlanPoints bounds the integer grid a Plan will precompute. Server
// knob grids are tiny (12 cores × 20 ways = 240 points); the bound exists
// so a hostile caps vector cannot make construction allocate unboundedly.
// Callers whose grid exceeds it get an error and should fall back to the
// exact search.
const MaxPlanPoints = 1 << 16

// GridPoint is one integer candidate of a two-resource knob grid, in the
// (cores, ways) orientation the server manager uses.
type GridPoint struct {
	C, W int
}

// Plan is a precomputed least-power frontier for one (model, caps) pair.
// A Plan is immutable after construction and safe for concurrent use; it
// deep-copies the model parameters it needs, so callers may mutate or
// discard the source Model afterwards.
type Plan struct {
	caps []int
	k    int

	// Min-power frontier over the quantized target domain: cell i answers
	// every target in (thresh[i-1], thresh[i]] with the allocation encoded
	// by walks[i]. Thresholds ascend; the last is the grid's peak
	// achievable performance.
	thresh []float64
	walks  []int
	// cellC/cellW decode walks for the 2-resource fast path.
	cellC, cellW []int

	// Power-unaware tables (2-resource models only): perf of the full
	// grid in walk order, viewed per cores-column, plus a per-column
	// monotonicity flag deciding binary search vs the exact linear scan.
	gridPerf  []float64
	colSorted []bool
}

// NewPlan precomputes the allocation planner tables for the model over the
// integer grid 1..caps[j] per resource. Construction validates caps the
// way the exact search does and costs one grid walk (amortized over every
// subsequent lookup); models with hostile coefficients (NaN, ±Inf, zero or
// negative exponents) build fine and reproduce the exact search's behavior
// on them.
func NewPlan(m *Model, caps []int) (*Plan, error) {
	if m == nil {
		return nil, errors.New("utility: nil model")
	}
	k := len(m.Alpha)
	if k == 0 {
		return nil, errors.New("utility: model has no resources")
	}
	if len(caps) != k {
		return nil, fmt.Errorf("utility: caps have %d entries, want %d", len(caps), k)
	}
	total := 1
	for j, c := range caps {
		if c < 1 {
			return nil, fmt.Errorf("utility: cap for %s must be at least 1", m.Resources[j])
		}
		if total > MaxPlanPoints/c {
			return nil, fmt.Errorf("utility: plan grid %v exceeds %d points", caps, MaxPlanPoints)
		}
		total *= c
	}

	p := &Plan{
		caps: append([]int(nil), caps...),
		k:    k,
	}

	// Per-axis tables: pows[j][v] = v^αⱼ and dyns[j][v] = v·pⱼ. Folding
	// these left to right reproduces Model.Perf/DynamicPower bit for bit.
	pows := make([][]float64, k)
	dyns := make([][]float64, k)
	for j := 0; j < k; j++ {
		pows[j] = make([]float64, caps[j]+1)
		dyns[j] = make([]float64, caps[j]+1)
		for v := 1; v <= caps[j]; v++ {
			pows[j][v] = math.Pow(float64(v), m.Alpha[j])
			dyns[j][v] = float64(v) * m.P[j]
		}
	}

	perf := make([]float64, total)
	power := make([]float64, total)
	idx := 0
	var walk func(j int, pf, pw float64)
	walk = func(j int, pf, pw float64) {
		if j == k {
			perf[idx], power[idx] = pf, pw
			idx++
			return
		}
		for v := 1; v <= caps[j]; v++ {
			walk(j+1, pf*pows[j][v], pw+dyns[j][v])
		}
	}
	walk(0, m.Alpha0, 0)

	p.buildFrontier(perf, power)
	if k == 2 {
		p.gridPerf = perf
		p.colSorted = make([]bool, caps[0])
		for c := 0; c < caps[0]; c++ {
			col := perf[c*caps[1] : (c+1)*caps[1]]
			sorted := true
			for w := 0; w < len(col); w++ {
				if w > 0 && !(col[w] >= col[w-1]) { // NaN ⇒ unsorted
					sorted = false
					break
				}
				if math.IsNaN(col[w]) {
					sorted = false
					break
				}
			}
			p.colSorted[c] = sorted
		}
		p.cellC = make([]int, len(p.walks))
		p.cellW = make([]int, len(p.walks))
		for i, w := range p.walks {
			p.cellC[i] = w/caps[1] + 1
			p.cellW[i] = w%caps[1] + 1
		}
	}
	return p, nil
}

// buildFrontier derives the quantized least-power table from the grid's
// perf/power values (indexed in walk order). Points the exact search could
// never select — NaN perf (never feasible) or non-finite/NaN power (never
// beats any bestPower) — are excluded up front; the remaining points are
// swept in descending perf so the running argmin over (power, walk index)
// equals the exact search's answer for every target at or below that perf.
func (p *Plan) buildFrontier(perf, power []float64) {
	order := make([]int, 0, len(perf))
	for i := range perf {
		if math.IsNaN(perf[i]) {
			continue
		}
		if math.IsNaN(power[i]) || math.IsInf(power[i], 1) {
			continue
		}
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool {
		if perf[order[a]] != perf[order[b]] {
			return perf[order[a]] > perf[order[b]]
		}
		return order[a] < order[b]
	})

	// Descending sweep; groups of equal perf enter the feasible set
	// together. A new cell is recorded only when the best changes, so
	// consecutive thresholds with the same answer merge into one cell.
	var descThresh []float64
	var descWalk []int
	bestPower := math.Inf(1)
	bestWalk := -1
	for i := 0; i < len(order); {
		pf := perf[order[i]]
		j := i
		for j < len(order) && perf[order[j]] == pf {
			w := order[j]
			if pw := power[w]; pw < bestPower || (pw == bestPower && w < bestWalk) {
				bestPower, bestWalk = pw, w
			}
			j++
		}
		if n := len(descWalk); n == 0 || descWalk[n-1] != bestWalk {
			descThresh = append(descThresh, pf)
			descWalk = append(descWalk, bestWalk)
		}
		i = j
	}

	n := len(descThresh)
	p.thresh = make([]float64, n)
	p.walks = make([]int, n)
	for i := 0; i < n; i++ {
		p.thresh[i] = descThresh[n-1-i]
		p.walks[i] = descWalk[n-1-i]
	}
}

// decode expands a walk index into the allocation vector it encodes.
func (p *Plan) decode(walk int, dst []int) []int {
	if cap(dst) < p.k {
		dst = make([]int, p.k)
	}
	dst = dst[:p.k]
	for j := p.k - 1; j >= 0; j-- {
		dst[j] = walk%p.caps[j] + 1
		walk /= p.caps[j]
	}
	return dst
}

// MinPowerAlloc answers like Model.IntegerMinPowerAlloc — the least-power
// integer allocation reaching targetPerf within caps — from the
// precomputed frontier, in O(log cells) instead of a grid walk. Answers
// and error conditions are bit-identical to the exact search.
func (p *Plan) MinPowerAlloc(targetPerf float64) ([]int, error) {
	if !(targetPerf > 0) {
		return nil, errors.New("utility: target performance must be positive")
	}
	i := sort.SearchFloat64s(p.thresh, targetPerf)
	if i == len(p.thresh) {
		return nil, fmt.Errorf("utility: target %v unreachable within caps %v", targetPerf, p.caps)
	}
	return p.decode(p.walks[i], nil), nil
}

// MinPower2 is the allocation-free 2-resource lookup the server manager's
// tick path uses. lastCell is the cell a previous lookup returned (or a
// negative value for none): when the new target falls inside the same
// quantization cell the answer is reused without searching — the warm
// start. feasible=false mirrors the exact search's "unreachable" error;
// the returned cell is then negative.
func (p *Plan) MinPower2(target float64, lastCell int) (cores, ways, cell int, feasible bool) {
	if p.k != 2 || !(target > 0) {
		return 0, 0, -1, false
	}
	if lastCell >= 0 && lastCell < len(p.thresh) &&
		target <= p.thresh[lastCell] && (lastCell == 0 || target > p.thresh[lastCell-1]) {
		return p.cellC[lastCell], p.cellW[lastCell], lastCell, true
	}
	i := sort.SearchFloat64s(p.thresh, target)
	if i == len(p.thresh) {
		return 0, 0, -1, false
	}
	return p.cellC[i], p.cellW[i], i, true
}

// AppendUnawareFrontier appends the power-unaware minimal feasible
// frontier for the target to dst and returns it: for each cores value, the
// least ways reaching the target, with points dominated by the previous
// entry (same ways at more cores) dropped — exactly the set the power
// unaware manager draws its arbitrary choice from. Only 2-resource plans
// carry the tables; other shapes return dst unchanged (callers fall back
// to the direct scan).
//
// Per column the stored perf values are scanned exactly like the direct
// walk; columns verified monotone at construction use a binary search for
// the same first-feasible index.
func (p *Plan) AppendUnawareFrontier(target float64, dst []GridPoint) []GridPoint {
	if p.k != 2 {
		return dst
	}
	ways := p.caps[1]
	for c := 1; c <= p.caps[0]; c++ {
		col := p.gridPerf[(c-1)*ways : c*ways]
		w := -1
		if p.colSorted[c-1] {
			if i := sort.SearchFloat64s(col, target); i < len(col) {
				w = i + 1
			}
		} else {
			for i, v := range col {
				if v >= target {
					w = i + 1
					break
				}
			}
		}
		if w == -1 {
			continue
		}
		if n := len(dst); n > 0 && dst[n-1].W == w {
			continue
		}
		dst = append(dst, GridPoint{C: c, W: w})
	}
	return dst
}
