package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fullTrace builds one event of every kind on a deterministic timeline.
func fullTrace() []Event {
	tr := New("host-a", 32)
	sp := tr.StartSpan("control_tick")
	tr.ControlDecision(at(1), sampleControl(1))
	sp.End(at(1))
	tr.CapAction(at(2), CapAction{PowerW: 121.5, CapW: 110, Action: ActionThrottleFreq, BEFreqGHz: 1.8, BEDuty: 1})
	tr.CapAction(at(3), CapAction{PowerW: 95, CapW: 110, Action: ActionRestoreFreq, BEFreqGHz: 2.0, BEDuty: 1})
	tr.Placement(at(4), Placement{BE: "x264", Node: "agent-1", Reason: "solve"})
	tr.Migration(at(5), Placement{BE: "x264", Node: "agent-2", From: "agent-1", Reason: "agent-1 dead"})
	tr.Degradation(at(6), "no live agents")
	tr.SolveSummary(at(7), SolveSummary{Method: "hungarian", Rows: 2, Cols: 3, Total: 1.75})
	tr.SolveSummary(at(7), SolveSummary{
		Method: "incremental", Rows: 4, Cols: 8, Total: 3.5,
		Pod: "pod-2", CellsComputed: 6, CellsReused: 26,
	})
	tr.BudgetShift(at(8), BudgetChange{Node: "host-a", FromW: 0, ToW: 118.4, Reason: "rebalance"})
	tr.BudgetCut(at(9), BudgetChange{Node: "dc", FromW: 540, ToW: 378, Reason: "brownout"})
	tr.Heartbeat(at(10), HeartbeatSummary{Frames: 12, Fulls: 2, Deltas: 9, Stale: 1, Resyncs: 2, Rejects: 1, Bytes: 640})
	return tr.Events()
}

func TestJSONLRoundTrip(t *testing.T) {
	events := fullTrace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events, true); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, parsed) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", parsed, events)
	}
}

func TestCanonicalFormStripsWallClock(t *testing.T) {
	events := fullTrace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events, false); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if strings.Contains(text, "wall_ns") || strings.Contains(text, "dur_ns") {
		t.Fatalf("canonical form leaked wall-clock fields:\n%s", text)
	}
	parsed, err := ParseJSONL(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(events), parsed) {
		t.Fatal("canonical round trip lost deterministic fields")
	}
	// Canonical export is a pure function of the deterministic fields:
	// re-exporting the parse reproduces the bytes.
	var again bytes.Buffer
	if err := WriteJSONL(&again, parsed, false); err != nil {
		t.Fatal(err)
	}
	if again.String() != text {
		t.Fatal("canonical export not reproducible")
	}
}

func TestEventJSONIsStdlibCompatible(t *testing.T) {
	events := fullTrace()
	b, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	var back []Event
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Fatal("json.Marshal/Unmarshal round trip mismatch")
	}
}

func TestParseJSONLRejectsMalformed(t *testing.T) {
	cases := []string{
		`{"seq":1,"t_ns":0,"kind":"volcano"}`,
		`{"seq":1,"t_ns":0 "kind":"control"}`,
		`not json at all`,
	}
	for _, c := range cases {
		if _, err := ParseJSONL(strings.NewReader(c)); err == nil {
			t.Fatalf("ParseJSONL accepted %q", c)
		}
	}
	events, err := ParseJSONL(strings.NewReader("\n\n"))
	if err != nil || len(events) != 0 {
		t.Fatalf("blank lines: events=%v err=%v", events, err)
	}
}

func TestValidateAcceptsRealTrace(t *testing.T) {
	if err := Validate(fullTrace()); err != nil {
		t.Fatal(err)
	}
	// A merged multi-host timeline interleaves hosts; still valid.
	s := NewSet(16)
	for _, h := range []string{"a", "b"} {
		tr := s.Tracer(h)
		for i := 1; i <= 3; i++ {
			tr.ControlDecision(at(int64(i)), sampleControl(i))
		}
	}
	if err := Validate(s.Events()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsViolations(t *testing.T) {
	base := func() Event {
		return Event{Seq: 1, TNS: 0, Kind: KindControl, Host: "h", Control: sampleControl(1)}
	}
	cases := map[string]func() []Event{
		"zero seq": func() []Event {
			ev := base()
			ev.Seq = 0
			return []Event{ev}
		},
		"seq not increasing": func() []Event {
			a, b := base(), base()
			b.TNS = 1
			return []Event{a, b}
		},
		"time reversal": func() []Event {
			a, b := base(), base()
			a.TNS = 5
			b.Seq, b.TNS = 2, 4
			return []Event{a, b}
		},
		"unknown path": func() []Event {
			ev := base()
			ev.Control.Path = "psychic"
			return []Event{ev}
		},
		"unknown action": func() []Event {
			ev := base()
			ev.Kind = KindCap
			ev.Cap = CapAction{CapW: 100, Action: "unplug"}
			return []Event{ev}
		},
		"zero cap": func() []Event {
			ev := base()
			ev.Kind = KindCap
			ev.Cap = CapAction{Action: ActionThrottleFreq}
			return []Event{ev}
		},
		"empty placement": func() []Event {
			ev := base()
			ev.Kind = KindPlacement
			ev.Control = ControlDecision{}
			return []Event{ev}
		},
		"self migration": func() []Event {
			ev := base()
			ev.Kind = KindMigration
			ev.Place = Placement{BE: "x", Node: "a", From: "a"}
			return []Event{ev}
		},
		"empty degradation reason": func() []Event {
			ev := base()
			ev.Kind = KindDegradation
			return []Event{ev}
		},
		"empty solve method": func() []Event {
			ev := base()
			ev.Kind = KindSolve
			ev.Solve = SolveSummary{Rows: 1, Cols: 1}
			return []Event{ev}
		},
		"negative solve cell counter": func() []Event {
			ev := base()
			ev.Kind = KindSolve
			ev.Solve = SolveSummary{Method: "sharded", Rows: 1, Cols: 1, CellsComputed: -1}
			return []Event{ev}
		},
		"negative span": func() []Event {
			ev := base()
			ev.Kind = KindSpan
			ev.Span = SpanInfo{Name: "solve", DurNS: -1}
			return []Event{ev}
		},
		"zero budget target": func() []Event {
			ev := base()
			ev.Kind = KindBudgetCut
			ev.Budget = BudgetChange{Node: "dc", FromW: 540, ToW: 0, Reason: "brownout"}
			return []Event{ev}
		},
		"negative heartbeat counter": func() []Event {
			ev := base()
			ev.Kind = KindHeartbeat
			ev.Heartbeat = HeartbeatSummary{Frames: 3, Deltas: -1}
			return []Event{ev}
		},
		"heartbeat applies exceed frames": func() []Event {
			ev := base()
			ev.Kind = KindHeartbeat
			ev.Heartbeat = HeartbeatSummary{Frames: 2, Fulls: 1, Deltas: 2}
			return []Event{ev}
		},
		"unknown kind": func() []Event {
			ev := base()
			ev.Kind = Kind(99)
			return []Event{ev}
		},
	}
	for name, mk := range cases {
		if err := Validate(mk()); err == nil {
			t.Errorf("Validate accepted %s", name)
		}
	}
}

func TestChromeExportValidates(t *testing.T) {
	events := fullTrace()
	// Add a second host so multiple tracks exist.
	tr := New("host-b", 8)
	sp := tr.StartSpan("cap_tick")
	sp.End(at(2))
	tr.ControlDecision(at(9), sampleControl(2))
	events = append(events, tr.Events()...)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("export failed its own validation: %v\n%s", err, buf.String())
	}
	var records []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("export is not a JSON array: %v", err)
	}
	// 2 thread_name metadata records + all events.
	if want := 2 + len(events); len(records) != want {
		t.Fatalf("chrome records = %d, want %d", len(records), want)
	}
	phases := map[string]int{}
	for _, r := range records {
		phases[r["ph"].(string)]++
	}
	if phases["M"] != 2 || phases["X"] != 2 || phases["i"] != len(events)-2 {
		t.Fatalf("phase mix = %v", phases)
	}
}

// TestWriteFiles: each named file holds what its exporter writes, the
// JSONL in canonical form; an empty path writes nothing, and a file that
// cannot be created is an error.
func TestWriteFiles(t *testing.T) {
	events := fullTrace()
	var jsonl, chrome bytes.Buffer
	if err := WriteJSONL(&jsonl, events, false); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&chrome, events); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jsonlPath, chromePath := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "t.json")
	if err := WriteFiles(events, jsonlPath, chromePath); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]byte{jsonlPath: jsonl.Bytes(), chromePath: chrome.Bytes()} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s holds\n%s\nwant\n%s", filepath.Base(path), got, want)
		}
	}

	only := filepath.Join(dir, "only.json")
	if err := WriteFiles(events, "", only); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 3 {
		t.Errorf("%d files after a Chrome-only write, want 3", len(entries))
	}
	if err := WriteFiles(events, filepath.Join(dir, "missing", "t.jsonl"), ""); err == nil {
		t.Error("writing into a missing directory succeeded")
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not array":     `{"name":"x"}`,
		"empty name":    `[{"ph":"i","ts":1,"pid":1,"tid":1}]`,
		"unknown phase": `[{"name":"x","ph":"Z","ts":1,"pid":1,"tid":1}]`,
		"missing ts":    `[{"name":"x","ph":"i","pid":1,"tid":1}]`,
		"negative ts":   `[{"name":"x","ph":"i","ts":-1,"pid":1,"tid":1}]`,
		"ts regression": `[{"name":"a","ph":"i","ts":5,"pid":1,"tid":1},{"name":"b","ph":"i","ts":4,"pid":1,"tid":1}]`,
	}
	for name, payload := range cases {
		if err := ValidateChromeTrace(strings.NewReader(payload)); err == nil {
			t.Errorf("ValidateChromeTrace accepted %s", name)
		}
	}
	// Distinct tracks keep independent clocks.
	ok := `[{"name":"a","ph":"i","ts":5,"pid":1,"tid":1},{"name":"b","ph":"i","ts":4,"pid":1,"tid":2}]`
	if err := ValidateChromeTrace(strings.NewReader(ok)); err != nil {
		t.Fatalf("independent tracks rejected: %v", err)
	}
}

func TestSortEventsCanonicalOrder(t *testing.T) {
	events := []Event{
		{Seq: 2, TNS: 10, Host: "b"},
		{Seq: 1, TNS: 10, Host: "a"},
		{Seq: 1, TNS: 5, Host: "b"},
		{Seq: 1, TNS: 10, Host: "b"},
	}
	SortEvents(events)
	want := []Event{
		{Seq: 1, TNS: 5, Host: "b"},
		{Seq: 1, TNS: 10, Host: "a"},
		{Seq: 1, TNS: 10, Host: "b"},
		{Seq: 2, TNS: 10, Host: "b"},
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("sorted = %+v", events)
	}
}
