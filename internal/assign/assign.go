package assign

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// validateMatrix checks a value matrix: n workers (rows) assigned to m ≥ n
// tasks (columns), maximizing total value.
func validateMatrix(value [][]float64) (n, m int, err error) {
	n = len(value)
	if n == 0 {
		return 0, 0, errors.New("assign: empty value matrix")
	}
	m = len(value[0])
	for i, row := range value {
		if len(row) != m {
			return 0, 0, fmt.Errorf("assign: ragged value matrix at row %d", i)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, 0, fmt.Errorf("assign: non-finite value at (%d, %d)", i, j)
			}
		}
	}
	if m < n {
		return 0, 0, fmt.Errorf("assign: %d workers but only %d tasks", n, m)
	}
	return n, m, nil
}

// total sums the value of an assignment canonically: the selected cells
// are copied out and summed in ascending sorted order. Equal-value
// optima that differ only by permuting identical rows or columns (a
// fleet full of class-shared job models and quantized host caps makes
// such ties routine) then produce bit-identical totals no matter which
// permutation a solver landed on — the property every "value equals
// Hungarian exactly" test and the sequential-vs-auction trace diff rely
// on.
func total(value [][]float64, assignment []int) float64 {
	vals := make([]float64, len(assignment))
	for i, j := range assignment {
		vals[i] = value[i][j]
	}
	return canonicalSum(vals)
}

// canonicalSum sorts vals in place and returns their sum. Sorting first
// fixes the float addition order for any permutation of the same value
// multiset; the inputs are validated finite, so NaN ordering is moot.
func canonicalSum(vals []float64) float64 {
	sort.Float64s(vals)
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

// Hungarian solves the assignment problem exactly in O(n³) using the
// shortest-augmenting-path (Jonker–Volgenant style) formulation with dual
// potentials. It maximizes total value; the matrix may be rectangular with
// more tasks than workers. The returned slice maps worker i to its task.
func Hungarian(value [][]float64) ([]int, float64, error) {
	n, m, err := validateMatrix(value)
	if err != nil {
		return nil, 0, err
	}
	// Convert to a minimization problem on a cost matrix.
	maxV := value[0][0]
	for _, row := range value {
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
	}
	// 1-indexed arrays per the classical formulation.
	cost := func(i, j int) float64 { return maxV - value[i-1][j-1] }

	u := make([]float64, n+1)
	v := make([]float64, m+1)
	matchCol := make([]int, m+1) // matchCol[j] = worker assigned to task j
	way := make([]int, m+1)

	for i := 1; i <= n; i++ {
		matchCol[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := matchCol[j0]
			delta := math.Inf(1)
			j1 := -1
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost(i0, j) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			if j1 == -1 {
				return nil, 0, errors.New("assign: hungarian failed to augment")
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[matchCol[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if matchCol[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			matchCol[j0] = matchCol[j1]
			j0 = j1
		}
	}

	assignment := make([]int, n)
	for j := 1; j <= m; j++ {
		if matchCol[j] > 0 {
			assignment[matchCol[j]-1] = j - 1
		}
	}
	return assignment, total(value, assignment), nil
}

// Exhaustive solves the assignment problem by enumerating every injective
// mapping of workers to tasks. Exponential; intended for the paper's 4×4
// exhaustive-placement comparison and for validating the other solvers.
func Exhaustive(value [][]float64) ([]int, float64, error) {
	n, m, err := validateMatrix(value)
	if err != nil {
		return nil, 0, err
	}
	if n > 9 {
		return nil, 0, fmt.Errorf("assign: exhaustive search infeasible for %d workers", n)
	}
	best := make([]int, n)
	bestVal := math.Inf(-1)
	cur := make([]int, n)
	usedTask := make([]bool, m)
	var walk func(i int, acc float64)
	walk = func(i int, acc float64) {
		if i == n {
			if acc > bestVal {
				bestVal = acc
				copy(best, cur)
			}
			return
		}
		for j := 0; j < m; j++ {
			if usedTask[j] {
				continue
			}
			usedTask[j] = true
			cur[i] = j
			walk(i+1, acc+value[i][j])
			usedTask[j] = false
		}
	}
	walk(0, 0)
	return best, total(value, best), nil
}

// LP solves the assignment problem by formulating it as a linear program
// and running the simplex method — the solver family the paper's cluster
// manager uses. The assignment polytope has integral vertices (Birkhoff),
// so the simplex vertex solution is a permutation; fractional ties are
// resolved greedily as a safeguard.
func LP(value [][]float64) ([]int, float64, error) {
	n, m, err := validateMatrix(value)
	if err != nil {
		return nil, 0, err
	}
	// Variables x[i][j] flattened to i*m+j.
	nv := n * m
	var rows [][]float64
	var rhs []float64
	// Each worker assigned exactly once.
	for i := 0; i < n; i++ {
		row := make([]float64, nv)
		for j := 0; j < m; j++ {
			row[i*m+j] = 1
		}
		rows = append(rows, row)
		rhs = append(rhs, 1)
	}
	// Each task used at most once: add slack variables by inequality →
	// equality with slack appended below (extend variable space).
	// Structural x (nv) + slack (m).
	for j := 0; j < m; j++ {
		row := make([]float64, nv+m)
		for i := 0; i < n; i++ {
			row[i*m+j] = 1
		}
		row[nv+j] = 1
		rows = append(rows, row)
		rhs = append(rhs, 1)
	}
	// Pad the worker rows with zero slack coefficients.
	for i := 0; i < n; i++ {
		rows[i] = append(rows[i], make([]float64, m)...)
	}
	c := make([]float64, nv+m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			c[i*m+j] = value[i][j]
		}
	}
	x, _, err := Simplex(c, rows, rhs)
	if err != nil {
		return nil, 0, err
	}
	assignment := make([]int, n)
	usedTask := make([]bool, m)
	for i := 0; i < n; i++ {
		bestJ, bestX := -1, 0.5
		for j := 0; j < m; j++ {
			if !usedTask[j] && x[i*m+j] > bestX {
				bestJ, bestX = j, x[i*m+j]
			}
		}
		if bestJ == -1 {
			// Fractional degenerate solution: take the best free task.
			for j := 0; j < m; j++ {
				if !usedTask[j] && (bestJ == -1 || value[i][j] > value[i][bestJ]) {
					bestJ = j
				}
			}
		}
		usedTask[bestJ] = true
		assignment[i] = bestJ
	}
	return assignment, total(value, assignment), nil
}
