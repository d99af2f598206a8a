package tree

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	pbudget "pocolo/internal/budget"
)

func TestParseText(t *testing.T) {
	tr, err := Parse("dc:1200=row:600{rack1:300{h0,h1},rack2:300{h2,h3}}")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Hosts(), []string{"h0", "h1", "h2", "h3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Hosts() = %v, want %v", got, want)
	}
	if got := tr.HostsUnder("rack2"); !reflect.DeepEqual(got, []string{"h2", "h3"}) {
		t.Errorf("HostsUnder(rack2) = %v", got)
	}
	if got := tr.HostsUnder("dc"); len(got) != 4 {
		t.Errorf("HostsUnder(dc) = %v", got)
	}
	if tr.HostsUnder("nope") != nil {
		t.Error("HostsUnder on unknown node should be nil")
	}
	budgets := tr.NodeBudgets()
	if budgets["dc"] != 1200 || budgets["row"] != 600 || budgets["rack1"] != 300 {
		t.Errorf("NodeBudgets = %v", budgets)
	}
	if _, ok := budgets["h0"]; ok {
		t.Error("unbudgeted host leaked into NodeBudgets")
	}
	if tr.HostIndex("h2") != 2 || tr.HostIndex("nope") != -1 {
		t.Error("HostIndex broken")
	}
	if tr.Lookup("row") == nil || tr.Lookup("nope") != nil {
		t.Error("Lookup broken")
	}
}

func TestParseJSON(t *testing.T) {
	tr, err := Parse(`{"name":"dc","watts":1000,"children":[
		{"name":"r1","watts":600,"children":[{"name":"h0"},{"name":"h1","watts":200}]},
		{"name":"r2","watts":600,"children":[{"name":"h2"}]}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Hosts(); !reflect.DeepEqual(got, []string{"h0", "h1", "h2"}) {
		t.Errorf("Hosts() = %v", got)
	}
	if tr.Lookup("h1").BudgetW != 200 {
		t.Error("host budget lost in JSON parse")
	}
	// The canonical text form round-trips the JSON-built tree too.
	again, err := Parse(tr.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", tr.String(), err)
	}
	if again.String() != tr.String() {
		t.Errorf("roundtrip %q != %q", again.String(), tr.String())
	}
}

func TestStringRoundtrip(t *testing.T) {
	for _, spec := range []string{
		"dc:100{a,b}",
		"dc:1200=row:600{rack1:300{h0,h1},rack2:300{h2,h3}}",
		"dc:1e3{a:10.5,b}",
		" dc : 100 { a , b } ",
	} {
		tr, err := Parse(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		again, err := Parse(tr.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", tr.String(), err)
		}
		if again.String() != tr.String() {
			t.Errorf("roundtrip %q -> %q -> %q", spec, tr.String(), again.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":                  "",
		"whitespace":             "   ",
		"trailing":               "dc:100{a,b}x",
		"no name":                ":100{a,b}",
		"no watts":               "dc:{a,b}",
		"nan watts":              "dc:NaN{a,b}",
		"overflow watts":         "dc:1e999{a,b}",
		"negative watts":         "dc:-5{a,b}",
		"internal without watts": "dc{a,b}",
		"zero internal":          "dc:0{a,b}",
		"duplicate names":        "dc:100{a,a}",
		"duplicate inner":        "dc:100{dc,b}",
		"unterminated":           "dc:100{a,b",
		"bare host":              "a",
		"dangling equals":        "dc:100=",
		"bad JSON":               "{not json",
		"unknown JSON field":     `{"name":"dc","power":3}`,
		"deep nesting":           strings.Repeat("a", 1) + deepSpec(MaxDepth+2),
	}
	for name, spec := range cases {
		if _, err := Parse(spec); err == nil {
			t.Errorf("%s: Parse(%.40q) unexpectedly succeeded", name, spec)
		}
	}
}

// deepSpec builds n0:W=n1:W=...=leaf deeper than the limit.
func deepSpec(depth int) string {
	var b strings.Builder
	for i := 0; i < depth; i++ {
		if i > 0 {
			b.WriteString("=")
		}
		b.WriteString("n")
		for j := i; j > 0; j /= 10 {
			b.WriteByte(byte('0' + j%10))
		}
		b.WriteString(":100")
	}
	b.WriteString("=leaf")
	return b.String()
}

func TestBuildRejectsCycle(t *testing.T) {
	a := &Node{Name: "a", BudgetW: 100}
	b := &Node{Name: "b", BudgetW: 50}
	a.Children = []*Node{b}
	b.Children = []*Node{a}
	if _, err := Build(a); err == nil {
		t.Error("expected error for a cyclic graph")
	}
	if _, err := Build(nil); err == nil {
		t.Error("expected error for nil root")
	}
	if _, err := Build(&Node{Name: "lonely", BudgetW: 10}); err == nil {
		t.Error("expected error for a root with no children")
	}
	if _, err := Build(&Node{Name: "dc", BudgetW: math.NaN(),
		Children: []*Node{{Name: "h"}}}); err == nil {
		t.Error("expected error for NaN budget")
	}
}

func TestSetBudgetValidation(t *testing.T) {
	tr, err := Parse("dc:1000{r1:400{a,b},r2:400{c}}")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetBudget("dc", 700); err != nil {
		t.Error(err)
	}
	if tr.Lookup("dc").BudgetW != 700 {
		t.Error("SetBudget did not stick")
	}
	if err := tr.SetBudget("nope", 100); err == nil {
		t.Error("expected error for unknown node")
	}
	if err := tr.SetBudget("r1", 0); err == nil {
		t.Error("expected error zeroing an internal node")
	}
	if err := tr.SetBudget("dc", math.Inf(1)); err == nil {
		t.Error("expected error for infinite budget")
	}
	if err := tr.SetBudget("a", 0); err != nil {
		t.Errorf("zeroing a host budget should be allowed: %v", err)
	}
}

func TestValidateFloors(t *testing.T) {
	tr, err := Parse("dc:1000{r1:100{a,b},r2:400{c}}")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ValidateFloors([]float64{60, 60, 60}); err == nil {
		t.Error("expected error: r1's 100 W cannot float two 60 W floors")
	}
	if err := tr.ValidateFloors([]float64{40, 40, 40}); err != nil {
		t.Error(err)
	}
	if err := tr.ValidateFloors([]float64{40, 40}); err == nil {
		t.Error("expected error for wrong floor count")
	}

	// Two violators: the error names the first in tree order, every time.
	tr, err = Parse("dc:1000{r1:100{a,b},r2:100{c,d}}")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		err := tr.ValidateFloors([]float64{60, 60, 60, 60})
		if err == nil || !strings.Contains(err.Error(), `node "r1"`) {
			t.Fatalf("call %d: err = %v, want it to name r1", i, err)
		}
	}
}

// genTree builds a random 2-4 level tree over n hosts with budgets that
// clear the given per-host floor.
func genTree(rng *rand.Rand, n int, floorW float64) *Node {
	hosts := make([]*Node, n)
	for i := range hosts {
		hosts[i] = &Node{Name: "h" + string(rune('a'+i%26)) + string(rune('0'+i/26))}
	}
	level := hosts
	id := 0
	for len(level) > 1 {
		var next []*Node
		for i := 0; i < len(level); {
			fan := 1 + rng.Intn(3)
			if i+fan > len(level) {
				fan = len(level) - i
			}
			group := level[i : i+fan]
			i += fan
			// Budget: enough for the floors beneath plus random headroom.
			var leaves int
			var count func(*Node)
			count = func(nd *Node) {
				if len(nd.Children) == 0 {
					leaves++
					return
				}
				for _, c := range nd.Children {
					count(c)
				}
			}
			for _, g := range group {
				count(g)
			}
			budget := float64(leaves)*(floorW+5) + rng.Float64()*200
			next = append(next, &Node{
				Name:     "n" + string(rune('a'+id%26)) + string(rune('0'+id/26)),
				BudgetW:  budget,
				Children: group,
			})
			id++
		}
		level = next
	}
	root := level[0]
	if len(root.Children) == 0 {
		root = &Node{Name: "root", BudgetW: float64(n)*(floorW+5) + 500, Children: hosts}
	}
	return root
}

func TestAllocProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const floorW = 61
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		tr, err := Build(genTree(rng, n, floorW))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		demand := make([]float64, n)
		caps := make([]float64, n)
		floors := make([]float64, n)
		for i := range demand {
			demand[i] = floorW + rng.Float64()*120
			caps[i] = 133 + rng.Float64()*100
			floors[i] = floorW
		}
		if err := tr.ValidateFloors(floors); err != nil {
			// The generator can under-budget a node relative to these
			// floors only by bug; surface it.
			t.Fatalf("trial %d: %v", trial, err)
		}
		shares, err := tr.Alloc(demand, caps, floors)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Property 1: conservation at every node — the shares beneath any
		// budgeted node never sum beyond its budget.
		budgets := tr.NodeBudgets()
		for name, budget := range budgets {
			sum := 0.0
			for _, h := range tr.HostsUnder(name) {
				sum += shares[tr.HostIndex(h)]
			}
			if sum > budget+1e-6 {
				t.Errorf("trial %d: node %s: shares %v exceed budget %v", trial, name, sum, budget)
			}
		}
		for i, s := range shares {
			// Property 2: no host below its idle floor.
			if s < floors[i]-1e-9 {
				t.Errorf("trial %d: host %d share %v below floor %v", trial, i, s, floors[i])
			}
			// Property 3: no host above its provisioned cap.
			if s > caps[i]+1e-9 {
				t.Errorf("trial %d: host %d share %v above cap %v", trial, i, s, caps[i])
			}
		}
	}
}

func TestAllocShapeMismatch(t *testing.T) {
	tr, err := Parse("dc:400{a,b}")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Alloc([]float64{1}, []float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("expected error for mismatched slice lengths")
	}
}

// TestDegenerateTreeMatchesFlatDivision pins the bit-identity contract at
// the arithmetic level: dividing a one-level tree is the same float-op
// sequence as the flat DivideProportional + ApplyFloors.
func TestDegenerateTreeMatchesFlatDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		children := make([]*Node, n)
		names := make([]string, n)
		for i := range children {
			names[i] = "h" + string(rune('0'+i))
			children[i] = &Node{Name: names[i]}
		}
		total := float64(n)*80 + rng.Float64()*300
		tr, err := Build(&Node{Name: "dc", BudgetW: total, Children: children})
		if err != nil {
			t.Fatal(err)
		}
		demand := make([]float64, n)
		caps := make([]float64, n)
		floors := make([]float64, n)
		for i := range demand {
			demand[i] = 50 + rng.Float64()*150
			caps[i] = 120 + rng.Float64()*80
			floors[i] = 62
		}
		got, err := tr.Alloc(demand, caps, floors)
		if err != nil {
			t.Fatal(err)
		}
		want := pbudget.DivideProportional(total, demand, caps)
		pbudget.ApplyFloors(want, floors)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: tree %v != flat %v", trial, got, want)
		}
	}
}

func FuzzParseBudgetTree(f *testing.F) {
	seeds := []string{
		"dc:1200=row:600{rack1:300{h0,h1},rack2:300{h2,h3}}",
		"dc:100{a,b}",
		"dc:100{a,a}",     // duplicate hosts
		"dc:50{h0,h1,h2}", // budget below realistic idle floors
		"dc:NaN{a,b}",     // NaN watts
		"dc:1e999{a,b}",   // overflow watts
		"a=b=c=d=e",       // unbudgeted chain
		`{"name":"dc","watts":100,"children":[{"name":"a"}]}`,
		`{"name":"dc","children":[{"name":"dc"}]}`, // dup via JSON
		"dc:100{a{b{c{d{e{f}}}}}}",
		deepSpec(MaxDepth + 2), // cycle-depth guard
		"dc:100{", "}", ",", "=", ":", "dc:+-e3{a}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tr, err := Parse(spec)
		if err != nil {
			return
		}
		// Every accepted tree must be internally consistent and re-parse
		// to the same canonical form.
		if len(tr.Hosts()) == 0 {
			t.Fatalf("accepted tree with no hosts: %q", spec)
		}
		for name, b := range tr.NodeBudgets() {
			if math.IsNaN(b) || math.IsInf(b, 0) || b <= 0 {
				t.Fatalf("accepted unphysical budget %v on %q", b, name)
			}
		}
		canon := tr.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, spec, err)
		}
		if again.String() != canon {
			t.Fatalf("roundtrip unstable: %q -> %q -> %q", spec, canon, again.String())
		}
	})
}
