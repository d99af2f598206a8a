package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pocolo/internal/trace"
)

// runTraced runs the CLI once with -trace and -trace-chrome into dir and
// returns the raw JSONL bytes and the parsed events.
func runTraced(t *testing.T, dir, name string) ([]byte, []trace.Event) {
	t.Helper()
	jsonl := filepath.Join(dir, name+".jsonl")
	chrome := filepath.Join(dir, name+"-chrome.json")
	var out bytes.Buffer
	args := []string{"-seed", "7", "-dwell", "1s", "-parallel", "1",
		"-trace", jsonl, "-trace-chrome", chrome}
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	raw, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ParseJSONL(f)
	if err != nil {
		t.Fatalf("parse %s: %v", jsonl, err)
	}
	if err := trace.Validate(events); err != nil {
		t.Fatalf("validate %s: %v", jsonl, err)
	}
	cf, err := os.Open(chrome)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if err := trace.ValidateChromeTrace(cf); err != nil {
		t.Fatalf("chrome trace %s: %v", chrome, err)
	}
	return raw, events
}

// TestTraceDeterministicReplay runs the same seeded simulation twice and
// demands byte-identical canonical JSONL: the trace must be a pure function
// of the seed, with no wall-clock or scheduling leakage.
func TestTraceDeterministicReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	dir := t.TempDir()
	rawA, events := runTraced(t, dir, "a")
	rawB, _ := runTraced(t, dir, "b")
	if !bytes.Equal(rawA, rawB) {
		t.Fatalf("seeded replays diverged: run A %d bytes, run B %d bytes", len(rawA), len(rawB))
	}

	byKind := map[trace.Kind]int{}
	controlTicks := 0
	for i := range events {
		byKind[events[i].Kind]++
		if events[i].Kind == trace.KindSpan && events[i].Span.Name == "control_tick" {
			controlTicks++
		}
	}
	if byKind[trace.KindControl] == 0 {
		t.Fatal("no control decisions traced")
	}
	if controlTicks == 0 {
		t.Fatal("no control_tick spans traced")
	}
	// At least one decision per recorded control tick (the acceptance bar);
	// the ring retains the tail of the run, so compare within what survived.
	if byKind[trace.KindControl] < controlTicks {
		t.Fatalf("%d control decisions for %d control ticks; want at least one per tick",
			byKind[trace.KindControl], controlTicks)
	}
	if byKind[trace.KindSolve] == 0 {
		t.Fatal("no solve summaries traced")
	}
	if byKind[trace.KindPlacement] == 0 {
		t.Fatal("no placement events traced")
	}
}

// TestHyperscaleCLI drives the sharded hyperscale scenario through the CLI
// seam and checks the printed summary plus a validated trace file.
func TestHyperscaleCLI(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "hyper.jsonl")
	var out bytes.Buffer
	args := []string{"-seed", "7", "-hyperscale", "64", "-hyperscale-jobs", "48",
		"-pod-size", "16", "-hyperscale-rounds", "2", "-churn", "0.3",
		"-hyperscale-budget", "0.8", "-trace", jsonl}
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"hyperscale: 64 hosts, 48 jobs, 4 pods",
		"initial placement value:",
		"final placement value:",
		"pod budgets:",
		"pod-0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ParseJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(events); err != nil {
		t.Fatal(err)
	}
	sharded := 0
	for _, ev := range events {
		if ev.Kind == trace.KindSolve && ev.Solve.Method == "sharded" {
			sharded++
		}
	}
	if sharded == 0 {
		t.Error("no sharded solve summaries in the hyperscale trace")
	}
}
