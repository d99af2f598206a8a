package controlplane

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"pocolo/internal/invariant"
)

// allNodeTreeConservation is the tree-conservation checker as it stood
// before the indexed one: every snapshot re-reads every node's budget and
// host list and re-sums every node, visiting nodes in sorted order so its
// output is deterministic. It is the differential oracle below. With
// scoped set it asserts only the nodes containing the snapshot's host,
// smallest first — the indexed checker's scope, computed the slow way.
func allNodeTreeConservation(auth invariant.BudgetAuthority, scoped bool) func(*invariant.Snapshot) error {
	type hostCap struct {
		capW float64
		now  time.Time
	}
	lastCap := make(map[string]hostCap)
	return func(s *invariant.Snapshot) error {
		if !s.Managed || s.CapW <= 0 {
			return nil
		}
		lastCap[s.Host] = hostCap{capW: s.CapW, now: s.Now}
		if auth.InGrace() {
			return nil
		}
		budgets := auth.NodeBudgets()
		nodes := make([]string, 0, len(budgets))
		for node := range budgets {
			nodes = append(nodes, node)
		}
		sort.Strings(nodes)
		if scoped {
			in := nodes[:0]
			for _, node := range nodes {
				if slices.Contains(auth.NodeHosts(node), s.Host) {
					in = append(in, node)
				}
			}
			nodes = in
			sort.SliceStable(nodes, func(i, j int) bool {
				return len(auth.NodeHosts(nodes[i])) < len(auth.NodeHosts(nodes[j]))
			})
		}
		for _, node := range nodes {
			sum := 0.0
			seen := 0
			hosts := auth.NodeHosts(node)
			for _, h := range hosts {
				c, ok := lastCap[h]
				if !ok || !c.now.Equal(s.Now) {
					break
				}
				sum += c.capW
				seen++
			}
			if seen != len(hosts) {
				continue
			}
			if sum > budgets[node]+1e-3 {
				return fmt.Errorf("installed caps under node %q sum to %.3fW, over its %.3fW budget", node, sum, budgets[node])
			}
		}
		return nil
	}
}

// noGrace is a budget authority that never grants convergence grace, so
// the caps still above a freshly cut budget count as violations.
type noGrace struct{ *Controller }

func (noGrace) InGrace() bool { return false }

// TestTreeConservationDifferential runs the seeded brownout campaign with
// the indexed tree-conservation checker and the all-node oracle side by
// side and requires identical violation sequences. With the controller's
// grace the campaign is violation-free under both. Without grace the
// −30% cut leaves caps over budget until the next rebalances reach the
// agents. There the all-node checker also re-flags a breached node at
// every later snapshot of the same instant, whatever the host, so the
// indexed checker is held to the scoped oracle: the same re-scan over
// the nodes containing each snapshot's host.
func TestTreeConservationDifferential(t *testing.T) {
	lcs := []string{"img-dnn", "sphinx", "tpcc", "xapian"}
	prov := func(lc string) float64 { return spec(t, lc).ProvisionedPowerW }
	treeSpec := fmt.Sprintf(
		"dc:%g{rack1:%g{agent-img-dnn,agent-sphinx},rack2:%g{agent-tpcc,agent-xapian}}",
		0.85*(prov("img-dnn")+prov("sphinx")+prov("tpcc")+prov("xapian")),
		0.9*(prov("img-dnn")+prov("sphinx")), 0.9*(prov("tpcc")+prov("xapian")))

	run := func(strict bool) (indexed, oracle []string) {
		// strict drops the grace and scopes the oracle; see above.
		harness := invariant.NewHarness()
		camp, err := NewCampaign(CampaignConfig{
			ControllerConfig: ControllerConfig{
				BE:         []string{"graph", "lstm"},
				BudgetTree: treeSpec,
				Seed:       5,
			},
			Agents:  campaignAgentConfigs(t, lcs, []string{"graph", "lstm"}),
			Harness: harness,
			Faults: []FaultEvent{{
				At: 8 * time.Second, Kind: FaultBrownout, Level: 0.3, Duration: 6 * time.Second,
			}},
			Duration: 20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		var auth invariant.BudgetAuthority = camp.Controller()
		if strict {
			auth = noGrace{camp.Controller()}
		}
		record := func(name string, check func(*invariant.Snapshot) error, out *[]string) {
			err := harness.Register(invariant.Checker{Name: name, Check: func(s *invariant.Snapshot) error {
				err := check(s)
				if err != nil {
					*out = append(*out, fmt.Sprintf("%s %s %v", s.Now.Format(time.StampMilli), s.Host, err))
				}
				return err
			}})
			if err != nil {
				t.Fatal(err)
			}
		}
		record("indexed", invariant.NewTreeConservation(auth).Check, &indexed)
		record("oracle", allNodeTreeConservation(auth, strict), &oracle)
		if _, err := camp.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return indexed, oracle
	}

	for _, strict := range []bool{false, true} {
		indexed, oracle := run(strict)
		if strict && len(oracle) == 0 {
			t.Fatal("grace-free brownout produced no violations; the differential is vacuous")
		}
		if !strict && len(oracle) != 0 {
			t.Fatalf("graceful brownout flagged %d violations, first %s", len(oracle), oracle[0])
		}
		if strings.Join(indexed, "\n") != strings.Join(oracle, "\n") {
			t.Fatalf("strict=%v: indexed checker flagged %d snapshots, oracle %d\nindexed: %q\noracle:  %q",
				strict, len(indexed), len(oracle), indexed, oracle)
		}
		t.Logf("strict=%v: %d identical violations", strict, len(oracle))
	}
}
