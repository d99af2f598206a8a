package tree

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	pbudget "pocolo/internal/budget"
	"pocolo/internal/trace"
)

// TestUnitWeightsMatchSpillOver is the equal split's property test: unit
// weights through DivideProportional give every entry total/n bit for
// bit while no cap binds, and land within 1e-9 W of the spill-over split
// when caps bind.
func TestUnitWeightsMatchSpillOver(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	binding := 0
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		caps := randomCaps(rng, n)
		var sum float64
		for _, c := range caps {
			sum += c
		}
		total := sum * (0.3 + 0.69*rng.Float64())
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		got := pbudget.DivideProportional(total, ones, caps)
		want := divideEqualRef(total, caps)
		binds := false
		for _, c := range caps {
			if total/float64(n) >= c {
				binds = true
			}
		}
		if !binds {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: unit weights %v != total/n %v with no binding cap (caps %v)", trial, got, want, caps)
				}
			}
			continue
		}
		binding++
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("trial %d: unit weights %v differ from spill-over %v by %g W (total %v, caps %v)", trial, got, want, d, total, caps)
		}
	}
	if binding == 0 {
		t.Fatal("no trial bound a cap")
	}
}

// TestDividerCutsAndGrace pins the engine's bookkeeping: only reductions
// count as cuts, any mutation restarts ConvergencePeriods divisions of
// grace, and every moved share and mutation is traced.
func TestDividerCutsAndGrace(t *testing.T) {
	tr, err := Parse("dc:300{a,b}")
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.New("divider", 0)
	div, err := NewDivider(tr, pbudget.DemandProportional, tracer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDivider(nil, pbudget.EqualSplit, nil); err == nil {
		t.Error("nil tree accepted")
	}
	leaves := []Leaf{{DrawW: 90, IdleW: 50, ProvisionedW: 200}, {DrawW: 120, IdleW: 50, ProvisionedW: 200}}
	now := time.Unix(0, 0)
	divide := func() []float64 {
		t.Helper()
		shares, short := div.Divide(now, leaves)
		if short != nil {
			t.Fatalf("short of floors: %v", short)
		}
		return shares
	}
	if !div.InGrace() || div.Shares() != nil {
		t.Fatal("a fresh divider must be in grace with no shares")
	}
	divide()
	divide()
	if div.InGrace() || div.Rebalances() != 2 {
		t.Fatalf("after 2 divisions: InGrace %v, Rebalances %d", div.InGrace(), div.Rebalances())
	}
	if err := div.SetBudget(now, "dc", 250, "brownout"); err != nil {
		t.Fatal(err)
	}
	if err := div.SetBudget(now, "nope", 100, "brownout"); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("unknown node: err = %v", err)
	}
	if err := div.SetBudget(now, "dc", math.NaN(), "brownout"); err == nil {
		t.Error("NaN budget accepted")
	}
	if div.Cuts() != 1 || !div.InGrace() {
		t.Fatalf("after a cut: Cuts %d, InGrace %v", div.Cuts(), div.InGrace())
	}
	shares := divide()
	if sum := shares[0] + shares[1]; sum > 250+1e-9 {
		t.Errorf("shares %v exceed the cut budget", shares)
	}
	divide()
	if div.InGrace() {
		t.Error("still in grace after ConvergencePeriods divisions")
	}
	if err := div.SetBudget(now, "dc", 300, "restore"); err != nil {
		t.Fatal(err)
	}
	if div.Cuts() != 1 || !div.InGrace() {
		t.Fatalf("after a restore: Cuts %d (want 1), InGrace %v (want true)", div.Cuts(), div.InGrace())
	}

	var cuts, shifts int
	for _, ev := range tracer.Events() {
		switch ev.Kind {
		case trace.KindBudgetCut:
			cuts++
		case trace.KindBudgetShift:
			shifts++
		}
	}
	// Two shifts on the first division and two after the cut; with the
	// draw held, the other divisions move nothing.
	if cuts != 2 || shifts != 4 {
		t.Errorf("%d BudgetCut and %d BudgetShift events, want 2 and 4", cuts, shifts)
	}
}

// TestDividerShortOfFloors is the floors rule: a node cut below the idle
// floors beneath it still divides, holds those hosts at their floors,
// and names itself in short.
func TestDividerShortOfFloors(t *testing.T) {
	tr, err := Parse("dc:400{rack:120{a,b},c}")
	if err != nil {
		t.Fatal(err)
	}
	div, err := NewDivider(tr, pbudget.DemandProportional, nil)
	if err != nil {
		t.Fatal(err)
	}
	leaves := []Leaf{
		{DrawW: 100, IdleW: 60, ProvisionedW: 200},
		{DrawW: 150, IdleW: 60, ProvisionedW: 200},
		{DrawW: 120, IdleW: 60, ProvisionedW: 200},
	}
	shares, short := div.Divide(time.Unix(0, 0), leaves)
	if short == nil || !strings.Contains(short.Error(), `"rack"`) {
		t.Fatalf("short = %v, want it to name rack", short)
	}
	for i := 0; i < 2; i++ {
		if math.Abs(shares[i]-61) > 1e-9 {
			t.Errorf("host %d share %v, want its 61 W floor", i, shares[i])
		}
	}
	if shares[2] <= 61 || shares[0]+shares[1]+shares[2] > 400+1e-9 {
		t.Errorf("shares %v: c must take the rest of dc's 400 W", shares)
	}
	if div.Rebalances() != 1 {
		t.Errorf("Rebalances = %d, want 1: a short division still counts", div.Rebalances())
	}
}
