package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: pocolo
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkFig12-8           	       5	   2501340 ns/op	 1123657 B/op	   12057 allocs/op
BenchmarkEngineSecond-8    	     120	     98321 ns/op	       0 B/op	       0 allocs/op
BenchmarkPlannerLookup-8   	20000000	        61.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkThroughput-8      	     100	    123456 ns/op	 512.00 MB/s	      64 B/op	       2 allocs/op
BenchmarkNoMem-8           	    1000	      5000 ns/op
BenchmarkSub/case=small-16 	    3000	      1200 ns/op	      16 B/op	       1 allocs/op
BenchmarkCustom-2          	      40	   7032036 ns/op	  96.50 MB/s	         0.8500 rebuilds/op	 11751666 B/op	   50489 allocs/op
PASS
ok  	pocolo	12.3s
`

func TestParse(t *testing.T) {
	snap := Parse(sampleOutput)
	if snap.GoOS != "linux" || snap.GoArch != "amd64" || snap.Package != "pocolo" {
		t.Fatalf("headers: %+v", snap)
	}
	if !strings.Contains(snap.CPU, "Xeon") {
		t.Fatalf("cpu: %q", snap.CPU)
	}
	if len(snap.Results) != 7 {
		t.Fatalf("got %d results, want 7: %+v", len(snap.Results), snap.Results)
	}
	byName := map[string]Result{}
	for _, r := range snap.Results {
		byName[r.Name] = r
	}

	// GOMAXPROCS suffixes are stripped, including on sub-benchmarks.
	for _, name := range []string{"BenchmarkFig12", "BenchmarkEngineSecond", "BenchmarkSub/case=small"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("missing %q in %v", name, byName)
		}
	}

	fig := byName["BenchmarkFig12"]
	if fig.Iterations != 5 || fig.NsPerOp != 2501340 || fig.BytesPerOp != 1123657 || fig.AllocsPerOp != 12057 || !fig.HasMem {
		t.Fatalf("Fig12: %+v", fig)
	}

	// The bug this file guards against: explicit zero allocs/op must be
	// recorded as a measurement, not dropped.
	eng := byName["BenchmarkEngineSecond"]
	if !eng.HasMem || eng.AllocsPerOp != 0 || eng.BytesPerOp != 0 {
		t.Fatalf("EngineSecond: %+v", eng)
	}
	b, err := json.Marshal(eng)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"allocs_per_op":0`, `"bytes_per_op":0`} {
		if !strings.Contains(string(b), field) {
			t.Fatalf("marshalled result %s missing %s", b, field)
		}
	}

	// Fractional ns/op and interleaved MB/s columns parse.
	if byName["BenchmarkPlannerLookup"].NsPerOp != 61.5 {
		t.Fatalf("PlannerLookup: %+v", byName["BenchmarkPlannerLookup"])
	}
	thr := byName["BenchmarkThroughput"]
	if thr.BytesPerOp != 64 || thr.AllocsPerOp != 2 || thr.Metrics["MB/s"] != 512 {
		t.Fatalf("Throughput: %+v", thr)
	}

	// MB/s and custom b.ReportMetric units are kept by unit, beside the
	// standard columns.
	cus := byName["BenchmarkCustom"]
	want := map[string]float64{"MB/s": 96.5, "rebuilds/op": 0.85}
	if cus.NsPerOp != 7032036 || cus.BytesPerOp != 11751666 || cus.AllocsPerOp != 50489 || !reflect.DeepEqual(cus.Metrics, want) {
		t.Fatalf("Custom: %+v", cus)
	}
	if b, err := json.Marshal(cus); err != nil || !strings.Contains(string(b), `"metrics":{"MB/s":96.5,"rebuilds/op":0.85}`) {
		t.Fatalf("marshalled result %s missing metrics", b)
	}
	if b, err := json.Marshal(fig); err != nil || strings.Contains(string(b), "metrics") {
		t.Fatalf("result without extra columns marshalled metrics: %s", b)
	}

	// A line without -benchmem columns still parses, flagged HasMem=false.
	nm := byName["BenchmarkNoMem"]
	if nm.HasMem || nm.NsPerOp != 5000 {
		t.Fatalf("NoMem: %+v", nm)
	}

	// The stripped GOMAXPROCS suffix survives as the per-result worker
	// count, including the -16 sub-benchmark.
	if fig.Procs != 8 {
		t.Fatalf("Fig12 procs: %+v", fig)
	}
	if got := byName["BenchmarkSub/case=small"].Procs; got != 16 {
		t.Fatalf("sub-benchmark procs %d, want 16", got)
	}
	if b, err := json.Marshal(fig); err != nil || !strings.Contains(string(b), `"procs":8`) {
		t.Fatalf("marshalled result %s missing procs", b)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkBroken-8",
		"BenchmarkBroken-8 abc 100 ns/op",
		"BenchmarkBroken-8 10 xyz ns/op",
		"BenchmarkBroken-8 10 100", // no unit
		"BenchmarkBroken-8 10 100 ns/op abc rebuilds/op",
	} {
		if snap := Parse(line + "\n"); len(snap.Results) != 0 {
			t.Errorf("line %q parsed to %+v", line, snap.Results)
		}
	}
}

func snapOf(pairs map[string][]float64) Snapshot {
	var s Snapshot
	for name, vals := range pairs {
		for _, v := range vals {
			s.Results = append(s.Results, Result{Name: name, NsPerOp: v})
		}
	}
	return s
}

func TestCompare(t *testing.T) {
	base := snapOf(map[string][]float64{
		"BenchmarkA":    {100, 90, 110}, // best 90
		"BenchmarkB":    {1000},
		"BenchmarkGone": {50},
	})
	cur := snapOf(map[string][]float64{
		"BenchmarkA":   {140, 130}, // best 130 vs 90: +44%
		"BenchmarkB":   {1100},     // +10%
		"BenchmarkNew": {1},        // no baseline: ignored
	})

	regs := Compare(base, cur, 0.25)
	if len(regs) != 1 {
		t.Fatalf("regressions: %+v", regs)
	}
	r := regs[0]
	if r.Name != "BenchmarkA" || r.BaseNs != 90 || r.NewNs != 130 {
		t.Fatalf("regression: %+v", r)
	}
	if r.Delta < 0.44 || r.Delta > 0.45 {
		t.Fatalf("delta: %v", r.Delta)
	}

	// Everything passes under a looser budget.
	if regs := Compare(base, cur, 0.50); len(regs) != 0 {
		t.Fatalf("loose budget still flagged: %+v", regs)
	}

	// Duplicate rows in the current snapshot report a name at most once.
	curDup := snapOf(map[string][]float64{"BenchmarkA": {200, 210, 220}})
	if regs := Compare(base, curDup, 0.25); len(regs) != 1 {
		t.Fatalf("duplicate rows reported %d times: %+v", len(regs), regs)
	}
}
