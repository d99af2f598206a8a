// Command pocolo-bench runs the repository benchmark harness via
// `go test -bench -benchmem`, parses the standard benchmark output, and
// writes a machine-readable snapshot to BENCH_<date>.json so performance
// regressions are diffable across commits.
//
// Usage:
//
//	pocolo-bench [-bench Fig12|Fig14] [-benchtime 1x] [-count 1] [-cpu 1,2]
//	             [-o BENCH_2026-08-05.json] [-dir .] [-note "before memo"]
//	             [-baseline BENCH_old.json] [-max-regress 0.25]
//
// The snapshot records goos/goarch/cpu, the exact go test invocation, and
// one entry per benchmark with ns/op, B/op, allocs/op, and any other
// columns (MB/s, b.ReportMetric units) under metrics. B/op and
// allocs/op are always emitted (zero is a meaningful measurement, not an
// absence), and the per-benchmark GOMAXPROCS suffix (`-8`) is stripped so
// names are stable across machines — the stripped value is preserved per
// result as procs, and the harness records its own gomaxprocs, so a
// snapshot says how many workers a parallel benchmark actually had.
//
// With -baseline, the run is additionally compared against a committed
// snapshot: any benchmark whose best ns/op regresses by more than
// -max-regress (a fraction, default 0.25) fails the command, which makes
// it usable as a CI regression gate. So does any benchmark the run
// measured that has no row in the snapshot: a gate cannot judge it.
// With -max-allocs N, any matched benchmark reporting more than N
// allocs/op fails too — the zero-alloc gate the observability hot path
// is held to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// HasMem records whether the line carried -benchmem columns at all;
	// without it a genuine 0 B/op is indistinguishable from "not measured".
	HasMem bool `json:"has_mem,omitempty"`
	// Procs is the GOMAXPROCS suffix go test stamped on the name (0 when
	// the name carried none) — the worker count the benchmark ran with.
	Procs int `json:"procs,omitempty"`
	// Metrics holds every other "value unit" column by unit: MB/s and
	// the custom units benchmarks report with b.ReportMetric (e.g.
	// "rebuilds/op"). Compare ignores them.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the full BENCH_<date>.json payload.
type Snapshot struct {
	Date   string `json:"date"`
	Note   string `json:"note,omitempty"`
	GoOS   string `json:"goos,omitempty"`
	GoArch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// GoMaxProcs is runtime.GOMAXPROCS of the harness process — the
	// parallelism available to the benchmarks it launched.
	GoMaxProcs int      `json:"gomaxprocs,omitempty"`
	Package    string   `json:"pkg,omitempty"`
	Command    []string `json:"command"`
	Results    []Result `json:"results"`
	RawOutput  string   `json:"raw_output,omitempty"`
	// PeakRSSKB is the benchmark child process's peak resident set in
	// kilobytes (ru_maxrss of the `go test` process tree's leader), so
	// memory blow-ups are diffable alongside ns/op. Zero when the
	// platform doesn't report rusage.
	PeakRSSKB int64 `json:"peak_rss_kb,omitempty"`
	// HarnessHeapInuse is runtime.MemStats.HeapInuse of the harness
	// process after the run — the harness's own footprint, recorded so a
	// snapshot distinguishes benchmark memory (PeakRSSKB) from the
	// parser's.
	HarnessHeapInuse uint64 `json:"harness_heap_inuse_bytes,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pocolo-bench: ")
	bench := flag.String("bench", ".", "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "1x", "passed to go test -benchtime (e.g. 1x, 5x, 100ms)")
	count := flag.Int("count", 1, "passed to go test -count")
	cpu := flag.String("cpu", "", "passed to go test -cpu (e.g. 1,2); empty keeps go test's default")
	dir := flag.String("dir", ".", "module directory to benchmark")
	out := flag.String("o", "", "output path (default BENCH_<date>.json in -dir)")
	note := flag.String("note", "", "free-form annotation stored in the snapshot")
	raw := flag.Bool("raw", false, "also embed the raw go test output in the snapshot")
	baseline := flag.String("baseline", "", "compare against this committed snapshot and fail on regression")
	maxRegress := flag.Float64("max-regress", 0.25, "allowed fractional ns/op regression vs -baseline (0.25 = +25%)")
	maxAllocs := flag.Int64("max-allocs", -1, "fail if any matched benchmark exceeds this allocs/op (-1 = no gate)")
	flag.Parse()

	date := time.Now().Format("2006-01-02")
	if *out == "" {
		*out = fmt.Sprintf("%s/BENCH_%s.json", strings.TrimRight(*dir, "/"), date)
	}

	args := []string{"test", "-run", "^$", "-bench", *bench,
		"-benchmem", "-benchtime", *benchtime, "-count", strconv.Itoa(*count)}
	if *cpu != "" {
		args = append(args, "-cpu", *cpu)
	}
	args = append(args, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = *dir
	cmd.Stderr = os.Stderr
	log.Printf("running go %s", strings.Join(args, " "))
	outBytes, err := cmd.Output()
	text := string(outBytes)
	if err != nil {
		// go test prints failures on stdout; surface them before dying.
		fmt.Fprint(os.Stderr, text)
		log.Fatalf("go test: %v", err)
	}

	snap := Parse(text)
	snap.Date = date
	snap.GoMaxProcs = runtime.GOMAXPROCS(0)
	snap.PeakRSSKB = peakRSSKB(cmd.ProcessState)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	snap.HarnessHeapInuse = mem.HeapInuse
	snap.Note = *note
	snap.Command = append([]string{"go"}, args...)
	if *raw {
		snap.RawOutput = text
	}
	if len(snap.Results) == 0 {
		fmt.Fprint(os.Stderr, text)
		log.Fatalf("no benchmark results matched -bench=%q", *bench)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d benchmark results to %s", len(snap.Results), *out)

	if *maxAllocs >= 0 {
		over := 0
		for _, r := range snap.Results {
			if r.HasMem && r.AllocsPerOp > *maxAllocs {
				log.Printf("ALLOCS %s: %d allocs/op (limit %d)", r.Name, r.AllocsPerOp, *maxAllocs)
				over++
			}
		}
		if over > 0 {
			log.Fatalf("%d benchmark(s) allocate beyond the %d allocs/op budget", over, *maxAllocs)
		}
		log.Printf("all benchmarks within %d allocs/op", *maxAllocs)
	}

	if *baseline != "" {
		base, err := LoadSnapshot(*baseline)
		if err != nil {
			log.Fatalf("baseline: %v", err)
		}
		if missing := Unbaselined(base, snap); len(missing) > 0 {
			log.Fatalf("%d benchmark(s) have no row in %s, so the gate cannot judge them: %s",
				len(missing), *baseline, strings.Join(missing, ", "))
		}
		regressions := Compare(base, snap, *maxRegress)
		for _, c := range regressions {
			log.Printf("REGRESSION %s: %.0f ns/op -> %.0f ns/op (%+.1f%%, limit +%.0f%%)",
				c.Name, c.BaseNs, c.NewNs, c.Delta*100, *maxRegress*100)
		}
		if len(regressions) > 0 {
			log.Fatalf("%d benchmark(s) regressed beyond the %.0f%% budget vs %s",
				len(regressions), *maxRegress*100, *baseline)
		}
		log.Printf("no regressions beyond %.0f%% vs %s", *maxRegress*100, *baseline)
	}
}

// peakRSSKB extracts the child's peak resident set from its rusage, in
// kilobytes. Linux reports ru_maxrss in KB already; other platforms (or
// a nil state) yield zero rather than a wrong unit.
func peakRSSKB(state *os.ProcessState) int64 {
	if state == nil {
		return 0
	}
	ru, ok := state.SysUsage().(*syscall.Rusage)
	if !ok || ru == nil {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return ru.Maxrss / 1024 // darwin reports bytes
	}
	return ru.Maxrss
}

// LoadSnapshot reads a BENCH_<date>.json file written by this command.
func LoadSnapshot(path string) (Snapshot, error) {
	var s Snapshot
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Regression is one benchmark whose ns/op grew beyond the allowed budget.
type Regression struct {
	Name   string
	BaseNs float64
	NewNs  float64
	Delta  float64 // fractional change, 0.30 = +30%
}

// Compare matches benchmarks by name (best ns/op across -count repeats,
// the standard noise-robust statistic) and returns those that regressed
// by more than maxRegress. Benchmarks present on only one side are
// ignored here; the command rejects the ones Unbaselined reports first.
func Compare(base, cur Snapshot, maxRegress float64) []Regression {
	best := func(s Snapshot) map[string]float64 {
		m := make(map[string]float64)
		for _, r := range s.Results {
			if v, ok := m[r.Name]; !ok || r.NsPerOp < v {
				m[r.Name] = r.NsPerOp
			}
		}
		return m
	}
	baseBest, curBest := best(base), best(cur)
	var out []Regression
	for _, r := range cur.Results {
		b, ok := baseBest[r.Name]
		if !ok || b <= 0 {
			continue
		}
		c := curBest[r.Name]
		if delta := c/b - 1; delta > maxRegress {
			out = append(out, Regression{Name: r.Name, BaseNs: b, NewNs: c, Delta: delta})
			delete(curBest, r.Name) // report each name once
		}
	}
	return out
}

// Unbaselined returns the names, in run order and once each, of the
// benchmarks in cur that have no row in base.
func Unbaselined(base, cur Snapshot) []string {
	seen := make(map[string]bool, len(base.Results))
	for _, r := range base.Results {
		seen[r.Name] = true
	}
	var out []string
	for _, r := range cur.Results {
		if !seen[r.Name] {
			seen[r.Name] = true
			out = append(out, r.Name)
		}
	}
	return out
}

// procSuffix is the GOMAXPROCS decoration go test appends to benchmark
// names (`BenchmarkFig12-8`). It is machine-dependent, so it is stripped
// to keep names comparable across snapshots.
var procSuffix = regexp.MustCompile(`-\d+$`)

// Parse extracts benchmark results and environment headers from go test
// output. Parsing is field-based rather than one rigid regexp: the name
// and iteration count are positional, and every remaining "value unit"
// pair is matched by unit, so lines with or without -benchmem columns,
// with MB/s throughput, or with custom metrics all parse. Explicit zero
// B/op and allocs/op values are recorded as measurements.
func Parse(text string) Snapshot {
	var snap Snapshot
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			snap.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			snap.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				snap.Results = append(snap.Results, r)
			}
		}
	}
	return snap
}

// parseLine parses one `BenchmarkName-N  iters  v unit  v unit ...` row.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	r := Result{Name: procSuffix.ReplaceAllString(fields[0], "")}
	if suf := procSuffix.FindString(fields[0]); suf != "" {
		// Benchmark names cannot end in -N themselves (gofmt'd Go
		// identifiers have no dashes), so the suffix is unambiguous.
		if n, err := strconv.Atoi(suf[1:]); err == nil {
			r.Procs = n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = iters
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if r.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return Result{}, false
			}
			seen = true
		case "B/op":
			if r.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, false
			}
			r.HasMem = true
		case "allocs/op":
			if r.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return Result{}, false
			}
			r.HasMem = true
		default:
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Result{}, false
			}
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return r, seen
}
