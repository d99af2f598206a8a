package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pocolo/internal/controlplane"
	"pocolo/internal/obs"
)

func TestQuantile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// TestTailSamples checks that every workload measures enough rounds for
// round_ms_p95 to have at least ten samples beyond it.
func TestTailSamples(t *testing.T) {
	for _, w := range workloads {
		xs := make([]float64, w.rounds)
		for i := range xs {
			xs[i] = float64(i)
		}
		if beyond := w.rounds - 1 - int(quantile(xs, 0.95)); beyond < 10 {
			t.Errorf("%s: %d rounds leave %d samples beyond p95, want at least 10", w.name, w.rounds, beyond)
		}
	}
}

func TestSelfTimeAndReconciliation(t *testing.T) {
	ms := time.Millisecond
	if got := selfTime(10*ms, 2*ms, 3*ms, 4*ms); got != ms {
		t.Errorf("selfTime = %v, want 1ms", got)
	}
	if !reconciles(9*ms, 2*ms, 3*ms, 4*ms) {
		t.Error("phases that exactly fill the round must reconcile")
	}
	if reconciles(5*ms, 2*ms, 2*ms, 2*ms) {
		t.Error("phases longer than the round must not reconcile")
	}
}

func TestHistDeltaCoversOnlyTheInterval(t *testing.T) {
	h := obs.NewRegistry().Histogram("test_seconds", "")
	for i := 0; i < 100; i++ {
		h.ObserveDuration(time.Millisecond)
	}
	before := h.Snapshot()
	for i := 0; i < 10; i++ {
		h.ObserveDuration(time.Second)
	}
	d := histDelta(h.Snapshot(), before)
	if d.Count != 10 {
		t.Fatalf("delta count = %d, want 10", d.Count)
	}
	if p50 := d.Quantile(0.5); p50 < 0.9 || p50 > 1.1 {
		t.Errorf("delta p50 = %vs, want about 1s", p50)
	}
}

// TestGate checks the placement rule's detection window and budget-tree
// conservation on hand-built controller states.
func TestGate(t *testing.T) {
	in := &instance{
		names:     []string{"a", "b", "c"},
		be:        []string{"x"},
		fab:       &fabric{down: []bool{false, true, false}},
		crashedAt: []int{0, 7, 0},
		nodeHosts: map[string][]string{"dc": {"a", "b", "c"}, "pod-0": {"a", "b"}},
	}
	budget := &controlplane.BudgetStatus{
		NodeBudgets: map[string]float64{"dc": 300, "pod-0": 200},
		Shares:      map[string]float64{"a": 100, "b": 100, "c": 100},
	}
	st := controlplane.Status{Placement: map[string]string{"x": "b"}, Budget: budget}
	if f := in.gate(7, st, roundSample{}); len(f) != 0 {
		t.Errorf("crashed this round, still placed: want no failure, got %v", f)
	}
	if f := in.gate(8, st, roundSample{}); len(f) != 1 {
		t.Errorf("placed a round after the controller must have noticed the crash: want one failure, got %v", f)
	}
	st.Placement = map[string]string{"x": "c"}
	budget.Shares["a"] = 100.1
	if f := in.gate(8, st, roundSample{}); len(f) != 2 {
		t.Errorf("shares over pod-0 and dc budgets: want two failures, got %v", f)
	}
}

func TestCompareDigestsFlagsDivergence(t *testing.T) {
	stream := []uint64{1, 2, 3}
	poll := &result{name: "poll-1k", digests: []uint64{1, 2}}
	var out bytes.Buffer
	compareDigests(poll, stream, &out)
	if poll.failed != 0 {
		t.Fatalf("matching prefixes flagged: %v", poll.failures)
	}
	poll.digests[1] = 9
	compareDigests(poll, stream, &out)
	if poll.failed != 1 {
		t.Fatal("diverging decisions not flagged")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must match.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs all four workloads on a 64-member fleet for a few rounds,
// untraced and traced, and checks that every workload prints exactly the
// metrics BENCHMARK.json declares and passes the correctness gate,
// including the poll-versus-stream transport contract.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	full := workloads
	defer func() { workloads = full }()
	workloads = append([]workloadSpec(nil), full...)
	for i := range workloads {
		workloads[i].agents, workloads[i].rounds = 64, 8
	}
	for trace, declared := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var want []string
		for _, m := range declared {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(want)
		var out bytes.Buffer
		ok, err := run(context.Background(), []string{"-workload", "all", "-seed", "3", "-seconds", "0", "-trace", trace}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trace %s: correctness gate failed:\n%s", trace, out.String())
		}
		if !strings.Contains(out.String(), "# transport contract: poll-1k decides as the stream transport") {
			t.Errorf("trace %s: the transport contract did not run:\n%s", trace, out.String())
		}
		got := make(map[string][]string)
		var last string
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			last = sc.Text()
			f := strings.Fields(last)
			if len(f) == 4 && !strings.HasPrefix(last, "#") {
				got[f[0]] = append(got[f[0]], f[1]+" "+f[3])
			}
		}
		if len(got) != len(workloads) {
			t.Errorf("trace %s: metrics printed for %d workloads, want %d", trace, len(got), len(workloads))
		}
		for w, names := range got {
			sort.Strings(names)
			if !reflect.DeepEqual(names, want) {
				t.Errorf("trace %s, %s: printed metrics\n%v\nwant\n%v", trace, w, names, want)
			}
		}
		var res struct {
			Correct bool
			Metrics map[string]json.RawMessage
		}
		if err := json.Unmarshal([]byte(last), &res); err != nil || !res.Correct || len(res.Metrics) != len(want)*len(workloads) {
			t.Errorf("trace %s: last line %q is not a correct result with every metric (err %v)", trace, last, err)
		}
	}
}

// TestDeterminism runs the churn workload twice with one seed and once with
// another: decisions repeat exactly, and the other seed passes the gate.
func TestDeterminism(t *testing.T) {
	w := workloads[1]
	w.agents, w.rounds = 64, 12
	opt := options{seed: 5}
	ctx := context.Background()
	decisionMetrics := func(r *result) map[string]float64 {
		out := make(map[string]float64)
		for _, m := range r.metrics {
			switch m.name {
			case "decision_lag_rounds", "ops_ok_pct", "be_ops_per_agent_s", "lc_slo_met_pct", "cap_ok_pct":
				out[m.name] = m.value
			}
		}
		return out
	}
	a, err := runWorkload(ctx, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWorkload(ctx, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.failed+b.failed != 0 {
		t.Fatalf("gate failed: %v %v", a.failures, b.failures)
	}
	if !reflect.DeepEqual(a.digests, b.digests) {
		t.Error("decision digests differ between runs with one seed")
	}
	if da, db := decisionMetrics(a), decisionMetrics(b); len(da) != 5 || !reflect.DeepEqual(da, db) {
		t.Errorf("decision metrics differ between runs with one seed:\n%v\n%v", da, db)
	}
	opt.seed = 6
	c, err := runWorkload(ctx, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if c.failed != 0 {
		t.Errorf("seed 6 failed the gate: %v", c.failures)
	}
	if reflect.DeepEqual(a.digests, c.digests) {
		t.Error("a different seed produced identical decisions")
	}
}
