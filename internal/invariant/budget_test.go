package invariant

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// fakeAuthority is a scripted BudgetAuthority.
type fakeAuthority struct {
	budgets map[string]float64
	hosts   map[string][]string
	grace   bool
}

func (f *fakeAuthority) NodeBudgets() map[string]float64 { return f.budgets }
func (f *fakeAuthority) NodeBudget(node string) float64  { return f.budgets[node] }
func (f *fakeAuthority) NodeHosts(node string) []string  { return f.hosts[node] }
func (f *fakeAuthority) InGrace() bool                   { return f.grace }

func TestTreeConservation(t *testing.T) {
	auth := &fakeAuthority{
		budgets: map[string]float64{"dc": 300, "rack1": 160},
		hosts: map[string][]string{
			"dc":    {"h0", "h1", "h2"},
			"rack1": {"h0", "h1"},
		},
	}
	check := NewTreeConservation(auth)
	snap := func(host string, capW float64) *Snapshot {
		s := healthySnapshot()
		s.Host = host
		s.CapW = capW
		return s
	}

	// Partial coverage: only h0 has reported, so nothing is asserted even
	// though h0 alone could never violate.
	if err := check.Check(snap("h0", 100)); err != nil {
		t.Fatalf("partial coverage flagged: %v", err)
	}
	// Full coverage, caps inside every budget.
	if err := check.Check(snap("h1", 50)); err != nil {
		t.Fatal(err)
	}
	if err := check.Check(snap("h2", 120)); err != nil {
		t.Fatalf("conforming caps flagged: %v", err)
	}

	// h1's cap grows: rack1 (100+80 = 180 > 160) must trip even though the
	// dc total (300) still holds.
	err := check.Check(snap("h1", 80))
	if err == nil {
		t.Fatal("rack over-budget not caught")
	}
	if !strings.Contains(err.Error(), "rack1") {
		t.Errorf("violation names the wrong node: %v", err)
	}

	// The same caps during grace are forgiven.
	auth.grace = true
	if err := check.Check(snap("h1", 80)); err != nil {
		t.Errorf("violation flagged during grace: %v", err)
	}
	auth.grace = false

	// Unmanaged and cap-free snapshots contribute nothing and never trip.
	s := snap("h1", 80)
	s.Managed = false
	if err := check.Check(s); err != nil {
		t.Errorf("unmanaged snapshot flagged: %v", err)
	}

	// Back within budget: the checker clears as caps shrink.
	if err := check.Check(snap("h1", 50)); err != nil {
		t.Errorf("restored caps flagged: %v", err)
	}

	// Harness integration: registers alongside the defaults.
	h := NewHarness()
	if err := h.Register(NewTreeConservation(auth)); err != nil {
		t.Fatal(err)
	}
}

// TestTreeConservationLeafBudget checks that a host leaf unbudgeted when
// the checker is built is asserted once it gains a bound at runtime.
func TestTreeConservationLeafBudget(t *testing.T) {
	auth := &fakeAuthority{
		budgets: map[string]float64{"dc": 300},
		hosts:   map[string][]string{"dc": {"h0", "h1"}, "h0": {"h0"}, "h1": {"h1"}},
	}
	check := NewTreeConservation(auth)
	s := healthySnapshot()
	s.Host, s.CapW = "h0", 120
	if err := check.Check(s); err != nil {
		t.Fatalf("unbudgeted leaf flagged: %v", err)
	}
	auth.budgets["h0"] = 100
	err := check.Check(s)
	if err == nil || !strings.Contains(err.Error(), `"h0"`) {
		t.Fatalf("leaf over its runtime budget: err = %v", err)
	}
}

// podTree is a fake authority shaped like the fleet benchmark's budget
// tree: n hosts in pods of 64 under one root.
func podTree(n int) (*fakeAuthority, []string) {
	auth := &fakeAuthority{budgets: map[string]float64{"dc": 1e9}, hosts: map[string][]string{}}
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%d", i)
		pod := fmt.Sprintf("pod-%d", i/64)
		auth.budgets[pod] = 1e9
		auth.hosts[pod] = append(auth.hosts[pod], hosts[i])
	}
	auth.hosts["dc"] = hosts
	return auth, hosts
}

// TestTreeConservationAllocsFlat checks that a snapshot's cost does not
// grow with the fleet: over a steady stream of ticks, in which every host
// reports once per instant and every node completes once per instant,
// checking a snapshot allocates nothing at 64 hosts or at 4096.
func TestTreeConservationAllocsFlat(t *testing.T) {
	for _, n := range []int{64, 4096} {
		auth, hosts := podTree(n)
		check := NewTreeConservation(auth)
		s := healthySnapshot()
		s.CapW = 100
		tick := func() {
			s.Now = s.Now.Add(time.Second)
			for _, h := range hosts {
				s.Host = h
				if err := check.Check(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		tick() // first observations size the per-node instant counts
		perTick := testing.AllocsPerRun(20, tick)
		if perTick != 0 {
			t.Errorf("%d hosts: %.1f allocs per tick of %d snapshots, want 0", n, perTick, n)
		}
	}
}
