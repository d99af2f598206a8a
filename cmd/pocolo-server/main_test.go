package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pocolo/internal/machine"
	"pocolo/internal/sim"
	"pocolo/internal/workload"
)

func TestWriteTimeline(t *testing.T) {
	cat := workload.MustDefaults()
	lc, err := cat.ByName("xapian")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.NewConstantTrace(0.5)
	if err != nil {
		t.Fatal(err)
	}
	host, err := sim.NewHost(sim.HostConfig{
		Name: "tl", Machine: machine.XeonE52650(), LC: lc, Trace: trace, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := sim.NewEngine(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.AddHost(host); err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := writeTimeline(path, host); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 21 { // header + 20 ticks
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "seconds,load_rps,power_w") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], ",") {
		t.Errorf("data row = %q", lines[1])
	}
	// Unwritable path errors.
	if err := writeTimeline("/does/not/exist/x.csv", host); err == nil {
		t.Error("expected error for unwritable path")
	}
}

// TestSeededRunRepeats runs one seeded configuration with three
// co-runners twice: the two reports must be byte-identical, with the
// per-co-runner BE work lines in name order.
func TestSeededRunRepeats(t *testing.T) {
	args := []string{"-seed", "5", "-duration", "10s", "-be", "graph,lstm,rnn"}
	var first, second bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("one seed, two reports:\n%s\n---\n%s", &first, &second)
	}
	var names []string
	for _, line := range strings.Split(first.String(), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[2] == "ops" {
			names = append(names, f[0])
		}
	}
	if want := []string{"graph", "lstm", "rnn"}; !slices.Equal(names, want) {
		t.Fatalf("BE work lines for %v, want %v in name order:\n%s", names, want, &first)
	}
}
