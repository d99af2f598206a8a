package stats

import (
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v", got)
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("Min/Max of empty slice should be ±Inf")
	}
}

func TestSolveLinearKnownSystem(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-9) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{
		{1, 2},
		{2, 4},
	}
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Error("expected singular matrix error")
	}
}

func TestSolveLinearDimensionErrors(t *testing.T) {
	if _, err := SolveLinear(nil, nil); err == nil {
		t.Error("expected error for empty system")
	}
	if _, err := SolveLinear([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("expected dimension mismatch error")
	}
	if _, err := SolveLinear([][]float64{{1, 2}, {3, 4, 5}}, []float64{1, 2}); err == nil {
		t.Error("expected non-square error")
	}
}

func TestSolveLinearRandomRoundTrip(t *testing.T) {
	// Property: for a random well-conditioned A and x, solving A·(A·x) = b
	// recovers x.
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(6)
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.Float64()*4 - 2
			}
			a[i][i] += float64(n) + 1 // diagonal dominance => well-conditioned
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*10 - 5
		}
		b := make([]float64, n)
		for i := range b {
			for j := range x {
				b[i] += a[i][j] * x[j]
			}
		}
		got, err := SolveLinear(a, b)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for i := range x {
			if !almostEqual(got[i], x[i], 1e-6) {
				t.Fatalf("iter %d: x[%d] = %v, want %v", iter, i, got[i], x[i])
			}
		}
	}
}

func TestOLSRecoversExactLinearModel(t *testing.T) {
	// y = 3 + 2x1 - 0.5x2 with no noise must be recovered exactly.
	rng := rand.New(rand.NewSource(42))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 40; i++ {
		x1 := rng.Float64() * 10
		x2 := rng.Float64() * 5
		xs = append(xs, []float64{x1, x2})
		ys = append(ys, 3+2*x1-0.5*x2)
	}
	reg, err := OLS(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(reg.Intercept(), 3, 1e-8) {
		t.Errorf("intercept = %v, want 3", reg.Intercept())
	}
	if !almostEqual(reg.Slope(0), 2, 1e-8) {
		t.Errorf("slope0 = %v, want 2", reg.Slope(0))
	}
	if !almostEqual(reg.Slope(1), -0.5, 1e-8) {
		t.Errorf("slope1 = %v, want -0.5", reg.Slope(1))
	}
	if !almostEqual(reg.RSquared, 1, 1e-9) {
		t.Errorf("R² = %v, want 1", reg.RSquared)
	}
}

func TestOLSWithNoiseHasReasonableR2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 10
		xs = append(xs, []float64{x})
		ys = append(ys, 1+4*x+rng.NormFloat64()*0.5)
	}
	reg, err := OLS(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if reg.RSquared < 0.95 {
		t.Errorf("R² = %v, expected > 0.95 for low-noise data", reg.RSquared)
	}
	if !almostEqual(reg.Slope(0), 4, 0.1) {
		t.Errorf("slope = %v, want ≈ 4", reg.Slope(0))
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := OLS(nil, nil); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := OLS([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := OLS([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("expected under-determined error")
	}
	if _, err := OLS([][]float64{{1, 2}, {1}, {3, 4}}, []float64{1, 2, 3}); err == nil {
		t.Error("expected ragged rows error")
	}
}

func TestMatHelpers(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	ata := MatTMat(a)
	want := [][]float64{{35, 44}, {44, 56}}
	for i := range want {
		for j := range want[i] {
			if !almostEqual(ata[i][j], want[i][j], 1e-12) {
				t.Errorf("AᵀA[%d][%d] = %v, want %v", i, j, ata[i][j], want[i][j])
			}
		}
	}
	atv := MatTVec(a, []float64{1, 1, 1})
	if !almostEqual(atv[0], 9, 1e-12) || !almostEqual(atv[1], 12, 1e-12) {
		t.Errorf("Aᵀv = %v, want [9 12]", atv)
	}
	if MatTMat(nil) != nil || MatTVec(nil, nil) != nil {
		t.Error("empty matrix helpers should return nil")
	}
}
