package budget

// This file holds the pure division arithmetic of the budget tree
// (budget/tree): its Divider divides every internal node's budget with
// exactly these functions.

// The demand estimator's settings, the same for every Divider.
const (
	// DefaultSmoothing is the EWMA coefficient applied to power readings.
	DefaultSmoothing = 0.5
	// DefaultMarginW is the demand headroom added to each server's
	// smoothed draw, letting throttled servers signal appetite beyond
	// their capped draw.
	DefaultMarginW = 5.0
)

// DivideProportional divides total in proportion to demand, clamping each
// share to caps[i] and redistributing any clamped-off remainder across the
// still-unclamped entries. demand and caps must be the same length; the
// returned shares sum to at most total (exactly total unless every entry
// clamped). It allocates its result; DivideProportionalInto is the same
// division into caller-owned buffers.
func DivideProportional(total float64, demand, caps []float64) []float64 {
	n := len(demand)
	return DivideProportionalInto(make([]float64, n), make([]bool, n), total, demand, caps)
}

// DivideProportionalInto is DivideProportional writing into shares, with
// active as its scratch; both must have len(demand) entries. It returns
// shares.
func DivideProportionalInto(shares []float64, active []bool, total float64, demand, caps []float64) []float64 {
	n := len(demand)
	clear(shares)
	for i := range active {
		active[i] = true
	}
	remaining := total
	for iter := 0; iter < n+1; iter++ {
		sum := 0.0
		for i, a := range active {
			if a {
				sum += demand[i]
			}
		}
		if sum <= 0 {
			break
		}
		clamped := false
		for i, a := range active {
			if !a {
				continue
			}
			want := remaining * demand[i] / sum
			if want >= caps[i] {
				shares[i] = caps[i]
				remaining -= caps[i]
				active[i] = false
				clamped = true
			}
		}
		if clamped {
			continue
		}
		for i, a := range active {
			if a {
				shares[i] = remaining * demand[i] / sum
			}
		}
		return shares
	}
	// Everything clamped: shares already set.
	return shares
}

// ApplyFloors raises every share below its floor up to the floor and
// drains the needed watts from shares above their floors (in proportion
// to each one's headroom), preserving the sum. It is a no-op when no
// share sits below its floor, so division results without floor pressure
// pass through bit-identical. When the total headroom cannot cover the
// deficit (a total below the summed floors, as after a deep brownout)
// every share lands on its floor and the sum grows — the same never-
// starve-a-host escape the per-server capper relies on.
func ApplyFloors(shares, floors []float64) {
	deficit := 0.0
	for i := range shares {
		if shares[i] < floors[i] {
			deficit += floors[i] - shares[i]
			shares[i] = floors[i]
		}
	}
	if deficit <= 0 {
		return
	}
	headroom := 0.0
	for i := range shares {
		if h := shares[i] - floors[i]; h > 0 {
			headroom += h
		}
	}
	if headroom <= 0 {
		return
	}
	frac := deficit / headroom
	if frac > 1 {
		frac = 1
	}
	for i := range shares {
		if h := shares[i] - floors[i]; h > 0 {
			shares[i] -= h * frac
		}
	}
}

// DemandEstimator tracks each server's smoothed power draw — the demand
// signal the budget tree's Divider divides by. The
// estimate is an EWMA of meter readings, floored at idle (a dark meter
// reads zero), plus a fixed request margin letting throttled servers
// signal appetite beyond their current capped draw.
type DemandEstimator struct {
	smoothing float64
	marginW   float64
	ewmaW     []float64
}

// NewDemandEstimator builds an estimator for n servers with the given
// smoothing coefficient, in (0, 1], and margin.
func NewDemandEstimator(n int, smoothing, marginW float64) *DemandEstimator {
	return &DemandEstimator{smoothing: smoothing, marginW: marginW, ewmaW: make([]float64, n)}
}

// Observe folds one power reading for server i into its EWMA. Readings at
// or below zero are replaced with idleW; the first observation seeds the
// EWMA directly.
func (d *DemandEstimator) Observe(i int, watts, idleW float64) {
	w := watts
	if w <= 0 {
		w = idleW
	}
	if d.ewmaW[i] == 0 {
		d.ewmaW[i] = w
	} else {
		d.ewmaW[i] = d.smoothing*w + (1-d.smoothing)*d.ewmaW[i]
	}
}

// Demand returns server i's current demand: smoothed draw plus margin.
func (d *DemandEstimator) Demand(i int) float64 { return d.ewmaW[i] + d.marginW }
