// Package assign provides the cluster manager's placement solvers: an
// exact Hungarian method, a two-phase dense simplex LP (the paper places
// applications with an LP solver, Section IV-B), and an exhaustive search
// used by the Fig. 14 comparison.
package assign

import (
	"errors"
	"fmt"
	"math"
)

const simplexEps = 1e-9

// Simplex maximizes c·x subject to A·x = b, x ≥ 0, using the two-phase
// primal simplex method with Bland's rule (no cycling). All b[i] must be
// non-negative; multiply a row by -1 first if needed. It returns the
// optimal x and objective value, or an error when the program is
// infeasible or unbounded.
func Simplex(c []float64, a [][]float64, b []float64) ([]float64, float64, error) {
	m := len(a)
	if m == 0 {
		return nil, 0, errors.New("assign: no constraints")
	}
	n := len(c)
	if n == 0 {
		return nil, 0, errors.New("assign: no variables")
	}
	if len(b) != m {
		return nil, 0, errors.New("assign: constraint dimension mismatch")
	}
	for i, row := range a {
		if len(row) != n {
			return nil, 0, fmt.Errorf("assign: constraint row %d has %d entries, want %d", i, len(row), n)
		}
		if b[i] < 0 {
			return nil, 0, fmt.Errorf("assign: b[%d] = %v is negative; normalize rows first", i, b[i])
		}
	}

	// Tableau: m rows × (n structural + m artificial + 1 rhs) columns.
	total := n + m
	tab := make([][]float64, m)
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		tab[i] = make([]float64, total+1)
		copy(tab[i], a[i])
		tab[i][n+i] = 1
		tab[i][total] = b[i]
		basis[i] = n + i
	}

	// Phase 1: minimize the sum of artificials (maximize its negation).
	phase1 := make([]float64, total)
	for j := n; j < total; j++ {
		phase1[j] = -1
	}
	if err := runSimplex(tab, basis, phase1, total, n); err != nil {
		return nil, 0, fmt.Errorf("assign: phase 1: %w", err)
	}
	// Feasibility check: all artificials at zero.
	for i, bi := range basis {
		if bi >= n && tab[i][total] > simplexEps {
			return nil, 0, errors.New("assign: infeasible program")
		}
	}
	// Drive any artificial still basic (at zero) out of the basis.
	for i, bi := range basis {
		if bi < n {
			continue
		}
		pivoted := false
		for j := 0; j < n; j++ {
			if math.Abs(tab[i][j]) > simplexEps {
				pivot(tab, basis, i, j, total)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant constraint: zero the row so it never pivots again.
			for j := 0; j <= total; j++ {
				tab[i][j] = 0
			}
		}
	}

	// Phase 2: maximize the real objective (artificials forbidden).
	phase2 := make([]float64, total)
	copy(phase2, c)
	if err := runSimplex(tab, basis, phase2, total, n); err != nil {
		return nil, 0, fmt.Errorf("assign: phase 2: %w", err)
	}

	x := make([]float64, n)
	for i, bi := range basis {
		if bi < n {
			x[bi] = tab[i][total]
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += c[j] * x[j]
	}
	return x, obj, nil
}

// runSimplex performs primal simplex iterations on the tableau maximizing
// obj. Columns ≥ limit (artificials in phase 2) are never chosen as
// entering variables when limit < total width.
func runSimplex(tab [][]float64, basis []int, obj []float64, total, structural int) error {
	m := len(tab)
	// reduced[j] = obj[j] − Σᵢ obj[basis[i]]·tab[i][j]
	for iter := 0; ; iter++ {
		if iter > 10000*(total+m) {
			return errors.New("simplex iteration limit exceeded")
		}
		// Compute reduced costs and pick the entering column (Bland: the
		// lowest-indexed column with positive reduced cost).
		enter := -1
		for j := 0; j < total; j++ {
			if isBasic(basis, j) {
				continue
			}
			red := obj[j]
			for i := 0; i < m; i++ {
				if obj[basis[i]] != 0 {
					red -= obj[basis[i]] * tab[i][j]
				}
			}
			if red > simplexEps {
				enter = j
				break
			}
		}
		if enter == -1 {
			return nil // optimal
		}
		// Ratio test (Bland: smallest ratio, ties by lowest basis index).
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			if tab[i][enter] > simplexEps {
				ratio := tab[i][total] / tab[i][enter]
				if ratio < bestRatio-simplexEps ||
					(math.Abs(ratio-bestRatio) <= simplexEps && (leave == -1 || basis[i] < basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave == -1 {
			return errors.New("unbounded program")
		}
		pivot(tab, basis, leave, enter, total)
	}
}

func isBasic(basis []int, j int) bool {
	for _, b := range basis {
		if b == j {
			return true
		}
	}
	return false
}

// pivot makes column enter basic in row leave.
func pivot(tab [][]float64, basis []int, leave, enter, total int) {
	p := tab[leave][enter]
	for j := 0; j <= total; j++ {
		tab[leave][j] /= p
	}
	for i := range tab {
		if i == leave {
			continue
		}
		f := tab[i][enter]
		if f == 0 {
			continue
		}
		for j := 0; j <= total; j++ {
			tab[i][j] -= f * tab[leave][j]
		}
	}
	basis[leave] = enter
}
