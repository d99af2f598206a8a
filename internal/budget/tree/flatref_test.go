package tree

import (
	"math"
	"math/rand"
	"time"

	pbudget "pocolo/internal/budget"
	"pocolo/internal/servermgr"
	"pocolo/internal/sim"
)

// flatBudgeter is the reference the one-level tree is held to: the flat
// budget loop as it stood before flat budgets became one-level trees,
// with its own equal split (total/n, then spill-over of clipped excess).
// Tests only.
type flatBudgeter struct {
	total      float64
	hosts      []*sim.Host
	managers   []*servermgr.Manager
	policy     pbudget.Policy
	est        *pbudget.DemandEstimator
	rebalances int
	lastShares []float64
}

func newFlatBudgeter(total float64, hosts []*sim.Host, managers []*servermgr.Manager, p pbudget.Policy) *flatBudgeter {
	return &flatBudgeter{
		total: total, hosts: hosts, managers: managers, policy: p,
		est:        pbudget.NewDemandEstimator(len(hosts), pbudget.DefaultSmoothing, pbudget.DefaultMarginW),
		lastShares: make([]float64, len(hosts)),
	}
}

func (b *flatBudgeter) attach(e *sim.Engine, period time.Duration) error {
	b.rebalance(e.Now())
	return e.Every(period, b.rebalance)
}

func (b *flatBudgeter) rebalance(time.Time) {
	n := len(b.hosts)
	caps := make([]float64, n)
	floors := make([]float64, n)
	for i, h := range b.hosts {
		b.est.Observe(i, h.MeterReading().Watts, h.Machine().IdlePowerW)
		caps[i] = h.CapW()
		floors[i] = h.Machine().IdlePowerW + 1
	}
	var shares []float64
	switch b.policy {
	case pbudget.DemandProportional:
		demand := make([]float64, n)
		for i := range demand {
			demand[i] = b.est.Demand(i)
		}
		shares = pbudget.DivideProportional(b.total, demand, caps)
	default:
		shares = divideEqualRef(b.total, caps)
	}
	pbudget.ApplyFloors(shares, floors)
	for i, mgr := range b.managers {
		_ = mgr.SetCapW(shares[i])
	}
	copy(b.lastShares, shares)
	b.rebalances++
}

// divideEqualRef gives every entry total/n, clamps to caps, and spills
// the clipped excess across unclamped entries.
func divideEqualRef(total float64, caps []float64) []float64 {
	n := len(caps)
	shares := make([]float64, n)
	for i := range shares {
		shares[i] = total / float64(n)
	}
	for iter := 0; iter < n; iter++ {
		excess := 0.0
		var openIdx []int
		for i := range shares {
			if shares[i] > caps[i] {
				excess += shares[i] - caps[i]
				shares[i] = caps[i]
			} else if shares[i] < caps[i] {
				openIdx = append(openIdx, i)
			}
		}
		if excess == 0 || len(openIdx) == 0 {
			break
		}
		per := excess / float64(len(openIdx))
		for _, i := range openIdx {
			shares[i] += per
		}
	}
	return shares
}

// randomCaps draws n provisioned capacities in [60, 260) W.
func randomCaps(rng *rand.Rand, n int) []float64 {
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 60 + 200*rng.Float64()
	}
	return caps
}

// maxAbsDiff is the largest elementwise |a[i] - b[i]|.
func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}
