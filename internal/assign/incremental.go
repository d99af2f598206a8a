package assign

import (
	"errors"
	"fmt"
	"math"
)

// Incremental is an exact assignment solver built for steady-state
// re-solves: it keeps the Jonker–Volgenant dual prices (row and column
// potentials) alive between solves, so when a single cell, row, or column
// of the value matrix changes only the affected row is re-augmented —
// one O(m²) shortest-augmenting-path pass — instead of re-running the
// full O(m³) Hungarian solve. Rows can also be added and removed, which
// is what the cluster rebalancer uses to migrate a job between pods.
//
// The solver maximizes total value over an n×m matrix with n workers
// (rows) and m ≥ n tasks (columns), exactly like Hungarian; after every
// mutation the maintained assignment is optimal for the current matrix,
// so Total always equals what a from-scratch Hungarian solve of the same
// matrix would report.
//
// Internally the matrix is padded square with m−n all-zero dummy rows,
// so the matching is always perfect and the optimality certificate needs
// no free-column side conditions. The invariants maintained between
// operations (on the minimization costs c(i,j) = −value[i][j]) are:
//
//   - dual feasibility: c(i,j) − u[i] − v[j] ≥ 0 for every cell,
//   - complementary slackness: equality on every matched edge,
//   - perfect matching over all m internal rows.
//
// Feasible duals plus a perfect matching of tight edges certify
// optimality by LP duality, and a dummy row of zeros adds the same
// constant (zero) to every assignment's total, so the optimum of the
// padded problem restricted to real rows is the optimum of the
// rectangular one. (Without padding, rectangular duals carry an extra
// side condition — v must vanish on unmatched columns — that single-row
// repairs cannot cheaply maintain; padding removes the condition
// altogether.) Each mutation detaches at most one row and restores the
// matching with a single augmenting pass — the induction step of the JV
// algorithm, which preserves all three invariants even when the
// detached row's potential is stale: the pass is a Dijkstra from that
// row, and shifting a Dijkstra source's out-edges by a constant does
// not change the shortest-path tree.
//
// Incremental is not safe for concurrent use.
type Incremental struct {
	n int // real (caller-visible) rows
	m int // columns; also the internal row count after padding

	value [][]float64 // m×m owned; rows n..m-1 are all-zero dummies

	u        []float64 // row potentials, len m
	v        []float64 // column potentials, len m
	rowMatch []int     // rowMatch[i] = column of internal row i
	colMatch []int     // colMatch[j] = internal row of column j

	// Scratch for the augmenting pass, reused across calls.
	minv []float64 // tentative shortest distances per column
	used []bool
	way  []int
	uns  []int     // compacted list of not-yet-settled columns
	src  []int     // augmentBatch: seeding source row per column
	stl  []int     // augmentBatch: settled columns, in settle order
	stlD []float64 // augmentBatch: settle-time distance per stl entry
	ci   []int32   // augmentBatch: compacted live column indices
	cv   []float64 // augmentBatch: column potentials, parallel to ci
	sd   []float64 // augmentBatch: best seed candidate per column
	ss   []int     // augmentBatch: source providing sd

	// Scratch for Total's canonical sum and for ResolveBatch.
	totScratch []float64
	batch      *batchState
}

// NewIncremental validates and copies the value matrix and computes an
// initial optimal assignment (m augmenting passes over the padded
// square matrix, the same order of work a fresh Hungarian solve does).
func NewIncremental(value [][]float64) (*Incremental, error) {
	n, m, err := validateMatrix(value)
	if err != nil {
		return nil, err
	}
	inc := newIncrementalCols(m)
	inc.n = n
	for i, row := range value {
		copy(inc.value[i], row)
	}
	if err := inc.solveFresh(); err != nil {
		return nil, err
	}
	return inc, nil
}

// NewIncrementalCols returns a solver with m columns and no rows yet —
// the state of an empty pod, ready for AddRow as jobs arrive.
func NewIncrementalCols(m int) (*Incremental, error) {
	if m < 1 {
		return nil, fmt.Errorf("assign: need at least 1 column, got %d", m)
	}
	inc := newIncrementalCols(m)
	if err := inc.solveFresh(); err != nil {
		return nil, err
	}
	return inc, nil
}

func newIncrementalCols(m int) *Incremental {
	inc := &Incremental{
		m:        m,
		value:    make([][]float64, m),
		u:        make([]float64, m),
		v:        make([]float64, m),
		rowMatch: make([]int, m),
		colMatch: make([]int, m),
		minv:     make([]float64, m),
		used:     make([]bool, m),
		way:      make([]int, m),
		uns:      make([]int, m),
		src:      make([]int, m),
		stl:      make([]int, 0, m),
		stlD:     make([]float64, 0, m),
		ci:       make([]int32, m),
		cv:       make([]float64, m),
		sd:       make([]float64, m),
		ss:       make([]int, m),
	}
	for i := range inc.value {
		inc.value[i] = make([]float64, m)
		inc.rowMatch[i] = -1
		inc.colMatch[i] = -1
	}
	return inc
}

func (inc *Incremental) solveFresh() error {
	for i := 0; i < inc.m; i++ {
		if err := inc.augment(i); err != nil {
			return err
		}
	}
	return nil
}

// cost is the minimization transform. Unlike Hungarian's maxV−value
// offset, plain negation needs no global constant, so a single cell
// update never invalidates the rest of the cost matrix; the potentials
// absorb any shift.
func (inc *Incremental) cost(i, j int) float64 { return -inc.value[i][j] }

// Rows returns the current number of workers (rows).
func (inc *Incremental) Rows() int { return inc.n }

// Cols returns the number of tasks (columns).
func (inc *Incremental) Cols() int { return inc.m }

// At returns the current value of cell (i, j).
func (inc *Incremental) At(i, j int) float64 { return inc.value[i][j] }

// Assignment returns a copy of the current optimal assignment: element i
// is the column assigned to row i.
func (inc *Incremental) Assignment() []int {
	return append([]int(nil), inc.rowMatch[:inc.n]...)
}

// ColOf returns the column assigned to row i: one element of
// Assignment, without the copy.
func (inc *Incremental) ColOf(i int) int { return inc.rowMatch[i] }

// RowOf returns the row assigned to column j, or -1 if the column is
// free (matched only to an internal dummy row).
func (inc *Incremental) RowOf(j int) int {
	if r := inc.colMatch[j]; r < inc.n {
		return r
	}
	return -1
}

// Total returns the value of the current optimal assignment as the
// canonical sorted-order sum (see canonicalSum) — the same summation
// Hungarian uses, so any two solvers holding equal-value optima report
// bit-identical totals even when their permutations differ among ties.
func (inc *Incremental) Total() float64 {
	if cap(inc.totScratch) < inc.n {
		inc.totScratch = make([]float64, inc.n)
	}
	vals := inc.totScratch[:inc.n]
	for i := 0; i < inc.n; i++ {
		vals[i] = inc.value[i][inc.rowMatch[i]]
	}
	return canonicalSum(vals)
}

// SetCell updates one cell and restores optimality. If the cell is
// unmatched and the change keeps the duals feasible the update is O(1);
// otherwise the cell's row is re-augmented (one O(m²) pass).
func (inc *Incremental) SetCell(i, j int, val float64) error {
	if i < 0 || i >= inc.n || j < 0 || j >= inc.m {
		return fmt.Errorf("assign: cell (%d, %d) outside %dx%d matrix", i, j, inc.n, inc.m)
	}
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return fmt.Errorf("assign: non-finite value at (%d, %d)", i, j)
	}
	if inc.value[i][j] == val {
		return nil
	}
	matchedHere := inc.rowMatch[i] == j
	inc.value[i][j] = val
	if !matchedHere && inc.cost(i, j)-inc.u[i]-inc.v[j] >= 0 {
		// Duals still feasible and no matched edge touched: the old
		// assignment remains optimal.
		return nil
	}
	return inc.resolveRow(i)
}

// SetRow replaces one row of the matrix and re-augments it.
func (inc *Incremental) SetRow(i int, row []float64) error {
	if i < 0 || i >= inc.n {
		return fmt.Errorf("assign: row %d outside %d rows", i, inc.n)
	}
	if len(row) != inc.m {
		return fmt.Errorf("assign: row has %d values, want %d", len(row), inc.m)
	}
	same := true
	for j, val := range row {
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return fmt.Errorf("assign: non-finite value at (%d, %d)", i, j)
		}
		if val != inc.value[i][j] {
			same = false
		}
	}
	if same {
		return nil
	}
	copy(inc.value[i], row)
	return inc.resolveRow(i)
}

// SetCol replaces one column of the matrix (dummy-row entries stay
// zero, so col holds one value per real row). The column's potential is
// repaired directly (v[j] = min over internal rows of c(i,j) − u[i],
// the tightest feasible value), so at most the row matched to the
// column needs re-augmenting; if its matched edge stays tight the whole
// update finishes without touching the matching.
func (inc *Incremental) SetCol(j int, col []float64) error {
	if j < 0 || j >= inc.m {
		return fmt.Errorf("assign: column %d outside %d columns", j, inc.m)
	}
	if len(col) != inc.n {
		return fmt.Errorf("assign: column has %d values, want %d", len(col), inc.n)
	}
	same := true
	for i, val := range col {
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return fmt.Errorf("assign: non-finite value at (%d, %d)", i, j)
		}
		if val != inc.value[i][j] {
			same = false
		}
	}
	if same {
		return nil
	}
	for i, val := range col {
		inc.value[i][j] = val
	}
	minRed := math.Inf(1)
	for i := 0; i < inc.m; i++ {
		if red := inc.cost(i, j) - inc.u[i]; red < minRed {
			minRed = red
		}
	}
	inc.v[j] = minRed
	r := inc.colMatch[j]
	if inc.cost(r, j)-inc.u[r]-inc.v[j] == 0 {
		// The matched edge is still tight: feasibility plus tight matched
		// edges plus a perfect matching means it is still optimal.
		return nil
	}
	return inc.resolveRow(r)
}

// AddRow appends a worker with the given task values and augments it in,
// returning its row index. The matrix must stay at most square (n ≤ m).
func (inc *Incremental) AddRow(row []float64) (int, error) {
	if inc.n+1 > inc.m {
		return 0, fmt.Errorf("assign: cannot add row %d with only %d columns", inc.n+1, inc.m)
	}
	if len(row) != inc.m {
		return 0, fmt.Errorf("assign: row has %d values, want %d", len(row), inc.m)
	}
	for j, val := range row {
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return 0, fmt.Errorf("assign: non-finite value at (%d, %d)", inc.n, j)
		}
	}
	// The first dummy row becomes real: overwrite its zeros and repair.
	idx := inc.n
	copy(inc.value[idx], row)
	inc.n++
	if err := inc.resolveRow(idx); err != nil {
		return 0, err
	}
	return idx, nil
}

// RemoveRow deletes a worker. The last row is swapped into index i (the
// caller must mirror that swap in any parallel bookkeeping).
func (inc *Incremental) RemoveRow(i int) error {
	if i < 0 || i >= inc.n {
		return fmt.Errorf("assign: row %d outside %d rows", i, inc.n)
	}
	// The row reverts to an all-zero dummy; one augmenting pass
	// re-certifies optimality with the row contributing nothing.
	for j := range inc.value[i] {
		inc.value[i][j] = 0
	}
	if err := inc.resolveRow(i); err != nil {
		return err
	}
	last := inc.n - 1
	if i != last {
		// Swap the freed dummy past the last real row so dummies stay
		// contiguous. A wholesale row swap (values, potential, matching)
		// is pure relabeling and preserves every invariant.
		inc.value[i], inc.value[last] = inc.value[last], inc.value[i]
		inc.u[i], inc.u[last] = inc.u[last], inc.u[i]
		inc.rowMatch[i], inc.rowMatch[last] = inc.rowMatch[last], inc.rowMatch[i]
		inc.colMatch[inc.rowMatch[i]] = i
		inc.colMatch[inc.rowMatch[last]] = last
	}
	inc.n = last
	return nil
}

// resolveRow detaches internal row i and re-augments it. Every other row
// keeps a feasible, tight matched edge, so one augmenting pass restores
// a perfect optimal matching — the JV induction step.
func (inc *Incremental) resolveRow(i int) error {
	if j := inc.rowMatch[i]; j >= 0 {
		inc.colMatch[j] = -1
		inc.rowMatch[i] = -1
	}
	return inc.augment(i)
}

// augment runs one shortest-augmenting-path pass from free row start,
// updating the potentials so dual feasibility is preserved. The source
// row's potential may be arbitrarily stale: the pass is a Dijkstra with
// the row as source, and a constant shift of all source out-edges
// leaves the shortest-path tree unchanged.
//
// The pass is the classical JV iteration rewritten against duals frozen
// at entry: the textbook version shifts u, v, and every tentative
// distance by delta each round (two O(m) sweeps per settled column),
// but those shifts are uniform, so absolute distances
//
//	dist[j] = dist[settled column of i0] + cost(i0,j) − u[i0] − v[j]
//
// settle in the same order with a single sweep, over a compacted list
// of unsettled columns that shrinks as the path grows. The per-round
// dual shifts telescope: a column settled at distance d ends up shifted
// by exactly (final distance − d), applied once at the end.
func (inc *Incremental) augment(start int) error {
	m := inc.m
	dist, used, way, uns := inc.minv, inc.used, inc.way, inc.uns
	for j := 0; j < m; j++ {
		dist[j] = math.Inf(1)
		used[j] = false
		way[j] = -1
		uns[j] = j
	}
	nu := m // live prefix of uns: columns not yet settled
	i0 := start
	j0 := -1
	base := 0.0 // distance at which i0's column settled (0 for the source)
	for {
		row := inc.value[i0]
		off := base - inc.u[i0]
		v := inc.v
		delta := math.Inf(1)
		pick := -1
		for k := 0; k < nu; k++ {
			j := uns[k]
			if cand := off - row[j] - v[j]; cand < dist[j] {
				dist[j] = cand
				way[j] = j0
			}
			if dist[j] < delta {
				delta = dist[j]
				pick = k
			}
		}
		if pick == -1 || math.IsInf(delta, 1) {
			return errors.New("assign: augment failed to reach a free column")
		}
		j1 := uns[pick]
		nu--
		uns[pick] = uns[nu]
		used[j1] = true
		j0 = j1
		base = delta
		if inc.colMatch[j1] == -1 {
			break
		}
		i0 = inc.colMatch[j1]
	}
	// Apply the telescoped dual shifts before flipping the path, while
	// colMatch still names each settled column's pre-augment row. The
	// final (free) column settled at distance base, so its shift is zero.
	inc.u[start] += base
	for j := 0; j < m; j++ {
		if !used[j] || inc.colMatch[j] == -1 {
			continue
		}
		shift := base - dist[j]
		inc.u[inc.colMatch[j]] += shift
		inc.v[j] -= shift
	}
	for j0 != -1 {
		j1 := way[j0]
		var r int
		if j1 == -1 {
			r = start
		} else {
			r = inc.colMatch[j1]
		}
		inc.colMatch[j0] = r
		inc.rowMatch[r] = j0
		j0 = j1
	}
	return nil
}

// augmentBatch restores a perfect matching when several rows are free
// at once: repeated multi-source shortest-augmenting-path passes, each
// seeded from every remaining free row, that settle columns until the
// nearest free column is reached. With f sources and f free columns
// the frontier meets a free column far sooner than any single-source
// pass would, so the passes early in a batch settle only a small slice
// of the matrix; the count returned is the number of passes (one per
// initially free row).
//
// Exactness is per-pass, by the same algebra as augment. Every source
// seeds its candidates with its own (possibly stale) potential offset;
// mixing offsets can only change which source wins the pass, never the
// validity of the result: the flipped path follows the actual relax
// parents, so its tightness equalities all hold with the winning
// source's own offset folded in, and dual feasibility for the newly
// matched source follows from its seed candidates bounding every
// settled distance below and the final distance above. Losing sources
// stay free and stale, exactly as they started.
func (inc *Incremental) augmentBatch(sources []int) (int, error) {
	passes := 0
	if len(sources) == 0 {
		return 0, nil
	}
	m := inc.m
	sd, ss, v := inc.sd, inc.ss, inc.v
	// Seed board: per column, the best direct candidate over all
	// sources, maintained across passes. Ascending source order with
	// strict improvement keeps the lowest row on ties. A pass
	// invalidates a column's entry only if the pass settled it (its v
	// shifted) or its providing source won (and is gone), so the repair
	// after each pass touches a small slice of the board instead of
	// reseeding sources x columns from scratch.
	for j := 0; j < m; j++ {
		sd[j] = math.Inf(1)
		ss[j] = -1
	}
	for _, s := range sources {
		row := inc.value[s]
		off := -inc.u[s]
		for j := 0; j < m; j++ {
			if cand := off - row[j] - v[j]; cand < sd[j] {
				sd[j] = cand
				ss[j] = s
			}
		}
	}
	for {
		winner, err := inc.augmentMulti()
		if err != nil {
			return passes, err
		}
		passes++
		for k, s := range sources {
			if s == winner {
				sources = append(sources[:k], sources[k+1:]...)
				break
			}
		}
		if len(sources) == 0 {
			return passes, nil
		}
		// Board repair. A seed entry is off - row[j] - v[j]; the pass
		// changed only v (on settled columns) and u of rows that are
		// matched or departed, so a settled column's offers from every
		// remaining source moved by the same dual shift: the entry
		// shifts in place and keeps its providing source. Only columns
		// whose provider was the departed winner need a fresh scan over
		// the remaining sources (row-major, so each source streams its
		// own row).
		stl, stlD := inc.stl, inc.stlD
		base := stlD[len(stlD)-1]
		for k, j := range stl {
			if ss[j] != winner {
				sd[j] += base - stlD[k]
			}
		}
		inval := inc.uns[:0]
		for j := 0; j < m; j++ {
			if ss[j] == winner {
				sd[j] = math.Inf(1)
				ss[j] = -1
				inval = append(inval, j)
			}
		}
		for _, str := range sources {
			row := inc.value[str]
			off := -inc.u[str]
			for _, j := range inval {
				if cand := off - row[j] - v[j]; cand < sd[j] {
					sd[j] = cand
					ss[j] = str
				}
			}
		}
	}
}

// augmentMulti runs one multi-source pass over the current seed board
// and returns the source row that got matched. The pass is augment's
// frozen-dual Dijkstra restructured for the batch hot loop: the
// unsettled columns live in compacted parallel arrays (index, tentative
// distance, and frozen column potential), so the relax sweep reads
// three sequential streams plus one gather into the relaxing row, and
// the next-minimum reduction is split across two accumulators to break
// the loop-carried compare chain. The index stream is int32 — the
// sweep is memory-bound, so halving that stream's width is a measured
// win, and pod matrices stay far below 2^31 columns. Settling swaps
// the last live entry into the settled slot; settle-time distances are
// recorded on a side list for the telescoped dual shifts. Ties in the
// minimum reduction break deterministically (even slots win over odd
// at equal distance); any minimum is a valid Dijkstra pick, so this
// affects only which of several equal-value optima is reached.
func (inc *Incremental) augmentMulti() (int, error) {
	m := inc.m
	cidx, cdist, cv := inc.ci[:m], inc.minv[:m], inc.cv[:m]
	way, src := inc.way, inc.src
	copy(cdist, inc.sd)
	copy(cv, inc.v)
	copy(src, inc.ss)
	for j := 0; j < m; j++ {
		cidx[j] = int32(j)
		way[j] = -1
	}
	stl, stlD := inc.stl[:0], inc.stlD[:0]
	nu := m // live prefix of the compacted arrays
	// First settle: pure min scan over the seeded distances.
	delta := math.Inf(1)
	pick := -1
	for k, d := range cdist {
		if d < delta {
			delta = d
			pick = k
		}
	}
	base := 0.0
	j0 := -1
	for {
		if pick == -1 || math.IsInf(delta, 1) {
			return -1, errors.New("assign: batch augment failed to reach a free column")
		}
		j1 := int(cidx[pick])
		nu--
		cidx[pick] = cidx[nu]
		cdist[pick] = cdist[nu]
		cv[pick] = cv[nu]
		stl = append(stl, j1)
		stlD = append(stlD, delta)
		base = delta
		if inc.colMatch[j1] == -1 {
			j0 = j1
			break
		}
		// Relax from the settled column's matched row, tracking the next
		// minimum in the same sweep.
		i0 := inc.colMatch[j1]
		row := inc.value[i0]
		off := base - inc.u[i0]
		ci, cd, vv := cidx[:nu], cdist[:nu], cv[:nu]
		d0, p0 := math.Inf(1), -1
		d1, p1 := math.Inf(1), -1
		k := 0
		for ; k+1 < nu; k += 2 {
			jA := ci[k]
			dA := cd[k]
			if cA := off - row[jA] - vv[k]; cA < dA {
				dA = cA
				cd[k] = cA
				way[jA] = j1
			}
			if dA < d0 {
				d0 = dA
				p0 = k
			}
			jB := ci[k+1]
			dB := cd[k+1]
			if cB := off - row[jB] - vv[k+1]; cB < dB {
				dB = cB
				cd[k+1] = cB
				way[jB] = j1
			}
			if dB < d1 {
				d1 = dB
				p1 = k + 1
			}
		}
		if k < nu {
			j := ci[k]
			d := cd[k]
			if c := off - row[j] - vv[k]; c < d {
				d = c
				cd[k] = c
				way[j] = j1
			}
			if d < d0 {
				d0 = d
				p0 = k
			}
		}
		if d1 < d0 {
			delta, pick = d1, p1
		} else {
			delta, pick = d0, p0
		}
	}
	inc.stl, inc.stlD = stl, stlD
	// Telescoped dual shifts for the settled columns, while colMatch
	// still names their pre-augment rows. The terminal free column
	// settled at distance base, so its shift is zero.
	for k, j := range stl {
		if inc.colMatch[j] == -1 {
			continue
		}
		shift := base - stlD[k]
		inc.u[inc.colMatch[j]] += shift
		inc.v[j] -= shift
	}
	// Find the winning source (the seed provider at the head of the
	// path), credit it the full distance, then flip the path.
	head := j0
	for way[head] != -1 {
		head = way[head]
	}
	winner := src[head]
	inc.u[winner] += base
	for j0 != -1 {
		j1 := way[j0]
		var r int
		if j1 == -1 {
			r = winner
		} else {
			r = inc.colMatch[j1]
		}
		inc.colMatch[j0] = r
		inc.rowMatch[r] = j0
		j0 = j1
	}
	return winner, nil
}

// SelfCheck verifies the solver's internal invariants — dual
// feasibility, tightness of matched edges, matching consistency, and
// all-zero dummy rows — and returns the first violation. It exists for
// tests and debugging; a non-nil error means a solver bug, not a caller
// error.
func (inc *Incremental) SelfCheck() error {
	const tol = 1e-9
	for i := 0; i < inc.m; i++ {
		j := inc.rowMatch[i]
		if j < 0 || j >= inc.m {
			return fmt.Errorf("assign: row %d unmatched", i)
		}
		if inc.colMatch[j] != i {
			return fmt.Errorf("assign: match arrays disagree at row %d / col %d", i, j)
		}
		if red := inc.cost(i, j) - inc.u[i] - inc.v[j]; math.Abs(red) > tol {
			return fmt.Errorf("assign: matched edge (%d, %d) not tight (reduced %g)", i, j, red)
		}
	}
	for i := inc.n; i < inc.m; i++ {
		for j, val := range inc.value[i] {
			if val != 0 {
				return fmt.Errorf("assign: dummy row %d has nonzero value at column %d", i, j)
			}
		}
	}
	for i := 0; i < inc.m; i++ {
		for j := 0; j < inc.m; j++ {
			if red := inc.cost(i, j) - inc.u[i] - inc.v[j]; red < -tol {
				return fmt.Errorf("assign: dual infeasible at (%d, %d): reduced %g", i, j, red)
			}
		}
	}
	return nil
}
