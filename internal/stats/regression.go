package stats

import (
	"errors"
	"fmt"
	"math"
)

// Regression holds the result of an ordinary least squares fit
// y ≈ β₀ + β₁·x₁ + … + β_k·x_k.
type Regression struct {
	// Coef holds the fitted coefficients; Coef[0] is the intercept β₀ and
	// Coef[j] (j ≥ 1) is the slope for predictor j-1.
	Coef []float64
	// RSquared is the coefficient of determination of the fit on the
	// training samples (1 = perfect fit).
	RSquared float64
	// N is the number of samples used.
	N int
}

// Intercept returns β₀.
func (r Regression) Intercept() float64 { return r.Coef[0] }

// Slope returns the coefficient for predictor j (0-based, excluding the
// intercept).
func (r Regression) Slope(j int) float64 { return r.Coef[j+1] }

// OLS fits y ≈ β₀ + Σ βⱼ·xⱼ by ordinary least squares using the normal
// equations. xs[i] is the predictor vector for sample i; all rows must have
// the same length. It requires at least len(xs[0])+1 samples.
func OLS(xs [][]float64, ys []float64) (Regression, error) {
	n := len(xs)
	if n == 0 {
		return Regression{}, ErrEmpty
	}
	if len(ys) != n {
		return Regression{}, errors.New("stats: xs and ys length mismatch")
	}
	k := len(xs[0])
	if n < k+1 {
		return Regression{}, fmt.Errorf("stats: need at least %d samples for %d predictors, got %d", k+1, k, n)
	}
	// Design matrix with a leading 1s column for the intercept.
	design := make([][]float64, n)
	for i, row := range xs {
		if len(row) != k {
			return Regression{}, errors.New("stats: ragged predictor rows")
		}
		d := make([]float64, k+1)
		d[0] = 1
		copy(d[1:], row)
		design[i] = d
	}
	xtx := MatTMat(design)
	xty := MatTVec(design, ys)
	coef, err := SolveLinear(xtx, xty)
	if err != nil {
		return Regression{}, fmt.Errorf("stats: OLS normal equations: %w", err)
	}
	reg := Regression{Coef: coef, N: n}
	reg.RSquared = rSquared(design, ys, coef)
	return reg, nil
}

// rSquared computes 1 − SS_res/SS_tot for the model coef on the design
// matrix (which includes the intercept column).
func rSquared(design [][]float64, ys []float64, coef []float64) float64 {
	mean := Mean(ys)
	ssTot, ssRes := 0.0, 0.0
	for i, row := range design {
		pred := 0.0
		for j, c := range coef {
			pred += c * row[j]
		}
		d := ys[i] - mean
		e := ys[i] - pred
		ssTot += d * d
		ssRes += e * e
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	r2 := 1 - ssRes/ssTot
	if math.IsNaN(r2) {
		return 0
	}
	return r2
}
