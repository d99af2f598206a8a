package experiments

import (
	"strings"
	"testing"
	"time"

	"pocolo/internal/telemetry"
)

func TestTableString(t *testing.T) {
	tbl := Table{
		Title:   "Demo",
		Caption: "a caption",
		Header:  []string{"name", "value"},
		Rows: [][]string{
			{"short", "1"},
			{"a-much-longer-name", "22"},
		},
	}
	out := tbl.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "a caption") {
		t.Errorf("missing caption:\n%s", out)
	}
	// Columns align to the widest cell.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	header := lines[2]
	if !strings.HasPrefix(header, "name") {
		t.Errorf("header = %q", header)
	}
	if len(lines) != 6 { // title, caption, header, separator, 2 rows
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
	// All data lines share the same width up to trailing spaces.
	w := len(strings.TrimRight(lines[3], " "))
	for _, l := range lines[3:] {
		if len(strings.TrimRight(l, " ")) > w+4 {
			t.Errorf("misaligned line %q", l)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := Table{
		Title:  "MD",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
	}
	md := tbl.Markdown()
	for _, want := range []string{"### MD", "| a | b |", "| --- | --- |", "| 1 | 2 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if f1(1.26) != "1.3" || f2(1.234) != "1.23" || f3(1.2345) != "1.234" {
		t.Error("float formatting broken")
	}
	if pct(0.123) != "12.3%" {
		t.Errorf("pct = %q", pct(0.123))
	}
}

func TestSteadyStateMean(t *testing.T) {
	s := telemetry.NewSeries()
	if got := steadyStateMean(s, time.Second); got != 0 {
		t.Errorf("empty series = %v", got)
	}
	start := time.Unix(0, 0)
	// Warmup spike then steady value.
	if err := s.Append(start, 1000); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := s.Append(start.Add(time.Duration(i)*time.Second), 100); err != nil {
			t.Fatal(err)
		}
	}
	if got := steadyStateMean(s, 5*time.Second); got != 100 {
		t.Errorf("steady mean = %v, want 100 (spike excluded)", got)
	}
	// Warmup longer than the series: fall back to the last value.
	if got := steadyStateMean(s, time.Hour); got != 100 {
		t.Errorf("all-warmup fallback = %v", got)
	}
}
