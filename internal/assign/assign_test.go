package assign

import (
	"math"
	"math/rand"
	"testing"
)

func TestSimplexKnownLP(t *testing.T) {
	// Maximize 3x + 2y s.t. x + y + s1 = 4, x + 3y + s2 = 6, all ≥ 0.
	// Optimum: x=4, y=0, obj=12.
	c := []float64{3, 2, 0, 0}
	a := [][]float64{
		{1, 1, 1, 0},
		{1, 3, 0, 1},
	}
	b := []float64{4, 6}
	x, obj, err := Simplex(c, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-12) > 1e-6 {
		t.Errorf("obj = %v, want 12", obj)
	}
	if math.Abs(x[0]-4) > 1e-6 || math.Abs(x[1]) > 1e-6 {
		t.Errorf("x = %v, want [4 0 ...]", x)
	}
}

func TestSimplexEqualityConstraints(t *testing.T) {
	// Maximize x + 2y s.t. x + y = 10, y ≤ 4 (via slack). Optimum: y=4,
	// x=6, obj=14.
	c := []float64{1, 2, 0}
	a := [][]float64{
		{1, 1, 0},
		{0, 1, 1},
	}
	b := []float64{10, 4}
	x, obj, err := Simplex(c, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-14) > 1e-6 {
		t.Errorf("obj = %v, want 14", obj)
	}
	if math.Abs(x[0]-6) > 1e-6 || math.Abs(x[1]-4) > 1e-6 {
		t.Errorf("x = %v", x)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	// x = 5 and x = 3 simultaneously.
	c := []float64{1}
	a := [][]float64{{1}, {1}}
	b := []float64{5, 3}
	if _, _, err := Simplex(c, a, b); err == nil {
		t.Error("expected infeasibility error")
	}
}

func TestSimplexUnbounded(t *testing.T) {
	// Maximize x with only x − y = 1: x can grow forever.
	c := []float64{1, 0}
	a := [][]float64{{1, -1}}
	b := []float64{1}
	if _, _, err := Simplex(c, a, b); err == nil {
		t.Error("expected unboundedness error")
	}
}

func TestSimplexValidation(t *testing.T) {
	if _, _, err := Simplex(nil, nil, nil); err == nil {
		t.Error("expected error for empty program")
	}
	if _, _, err := Simplex([]float64{1}, [][]float64{}, []float64{}); err == nil {
		t.Error("expected error for no constraints")
	}
	if _, _, err := Simplex([]float64{1}, [][]float64{{1}}, []float64{-1}); err == nil {
		t.Error("expected error for negative rhs")
	}
	if _, _, err := Simplex([]float64{1}, [][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("expected error for dimension mismatch")
	}
	if _, _, err := Simplex([]float64{1, 1}, [][]float64{{1, 1}}, []float64{1, 2}); err == nil {
		t.Error("expected error for rhs length mismatch")
	}
}

func TestSimplexRedundantConstraint(t *testing.T) {
	// Duplicate equality rows (rank-deficient): must still solve.
	c := []float64{2, 1}
	a := [][]float64{
		{1, 1},
		{1, 1},
	}
	b := []float64{3, 3}
	x, obj, err := Simplex(c, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-6) > 1e-6 {
		t.Errorf("obj = %v, want 6 (x=3, y=0)", obj)
	}
	if math.Abs(x[0]-3) > 1e-6 {
		t.Errorf("x = %v", x)
	}
}

func knownMatrix() [][]float64 {
	return [][]float64{
		{7, 4, 3},
		{6, 8, 5},
		{9, 4, 4},
	}
}

func TestSolversOnKnownMatrix(t *testing.T) {
	// Optimal total is 3+8+9 = 20 (0→2, 1→1, 2→0).
	want := 20.0
	for name, solve := range map[string]func([][]float64) ([]int, float64, error){
		"hungarian":  Hungarian,
		"exhaustive": Exhaustive,
		"lp":         LP,
	} {
		got, val, err := solve(knownMatrix())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(val-want) > 1e-6 {
			t.Errorf("%s: value = %v, want %v (assignment %v)", name, val, want, got)
		}
		seen := map[int]bool{}
		for _, j := range got {
			if seen[j] {
				t.Errorf("%s: duplicate task in %v", name, got)
			}
			seen[j] = true
		}
	}
}

func TestSolversAgreeOnRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 60; iter++ {
		n := 2 + rng.Intn(5)
		m := n + rng.Intn(3)
		value := make([][]float64, n)
		for i := range value {
			value[i] = make([]float64, m)
			for j := range value[i] {
				value[i][j] = math.Round(rng.Float64()*1000) / 10
			}
		}
		_, exVal, err := Exhaustive(value)
		if err != nil {
			t.Fatal(err)
		}
		_, huVal, err := Hungarian(value)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(huVal-exVal) > 1e-6 {
			t.Fatalf("iter %d: hungarian %v != exhaustive %v on %v", iter, huVal, exVal, value)
		}
		_, lpVal, err := LP(value)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lpVal-exVal) > 1e-6 {
			t.Fatalf("iter %d: lp %v != exhaustive %v on %v", iter, lpVal, exVal, value)
		}
	}
}

func TestMatrixValidation(t *testing.T) {
	for name, solve := range map[string]func([][]float64) ([]int, float64, error){
		"hungarian":  Hungarian,
		"exhaustive": Exhaustive,
		"lp":         LP,
	} {
		if _, _, err := solve(nil); err == nil {
			t.Errorf("%s: expected error for empty matrix", name)
		}
		if _, _, err := solve([][]float64{{1, 2}, {3}}); err == nil {
			t.Errorf("%s: expected error for ragged matrix", name)
		}
		if _, _, err := solve([][]float64{{1, 2}, {3, 4}, {5, 6}}); err == nil {
			t.Errorf("%s: expected error for more workers than tasks", name)
		}
		if _, _, err := solve([][]float64{{math.NaN()}}); err == nil {
			t.Errorf("%s: expected error for NaN entry", name)
		}
	}
	if _, _, err := Exhaustive(make([][]float64, 12)); err == nil {
		t.Error("exhaustive: expected error for oversized problem")
	}
}

func TestRectangularAssignment(t *testing.T) {
	// 2 workers, 4 tasks: best is 9 (0→3) + 8 (1→1) = 17.
	value := [][]float64{
		{1, 2, 3, 9},
		{2, 8, 1, 7},
	}
	for name, solve := range map[string]func([][]float64) ([]int, float64, error){
		"hungarian": Hungarian,
		"lp":        LP,
	} {
		a, val, err := solve(value)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(val-17) > 1e-6 {
			t.Errorf("%s: value = %v, want 17 (assignment %v)", name, val, a)
		}
	}
}

func TestHungarianNegativeValues(t *testing.T) {
	value := [][]float64{
		{-5, -1},
		{-2, -8},
	}
	_, val, err := Hungarian(value)
	if err != nil {
		t.Fatal(err)
	}
	// Best: (0→1) + (1→0) = −3.
	if math.Abs(val-(-3)) > 1e-6 {
		t.Errorf("value = %v, want -3", val)
	}
}
