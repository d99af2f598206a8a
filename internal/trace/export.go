package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// WriteFiles writes a simulation's timeline to the files its -trace and
// -trace-chrome flags name: the canonical JSONL form (see WriteJSONL) to
// jsonlPath and the Chrome trace-event form to chromePath. An empty path
// is skipped.
func WriteFiles(events []Event, jsonlPath, chromePath string) error {
	if jsonlPath != "" {
		if err := writeFile(jsonlPath, func(w io.Writer) error { return WriteJSONL(w, events, false) }); err != nil {
			return err
		}
	}
	if chromePath != "" {
		return writeFile(chromePath, func(w io.Writer) error { return WriteChromeTrace(w, events) })
	}
	return nil
}

// writeFile creates path and streams write's output into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteJSONL writes one event per line. includeWall selects the full
// wire form; with includeWall=false the output is the canonical form
// (no wall_ns, no span dur_ns) that is byte-identical across seeded
// runs — the deterministic-replay contract.
func WriteJSONL(w io.Writer, events []Event, includeWall bool) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for i := range events {
		buf = events[i].appendJSON(buf[:0], includeWall)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseJSONL reads a JSONL trace back into events. Blank lines are
// skipped; any malformed line is an error carrying its line number.
func ParseJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var j eventJSON
		if err := json.Unmarshal(text, &j); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		ev, err := j.event()
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// UnmarshalJSON implements json.Unmarshaler (used by /v1/trace clients).
func (e *Event) UnmarshalJSON(b []byte) error {
	var j eventJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	ev, err := j.event()
	if err != nil {
		return err
	}
	*e = ev
	return nil
}

var validPaths = map[string]bool{
	PathPlannerHit: true, PathPlannerWarm: true, PathExact: true,
	PathFullMachine: true, PathColdStart: true,
}

var validActions = map[string]bool{
	ActionThrottleFreq: true, ActionThrottleDuty: true,
	ActionRestoreFreq: true, ActionRestoreDuty: true, ActionExhausted: true,
}

// Validate checks a trace against the event schema: per-host sequence
// numbers strictly increase, per-host times never go backwards, and each
// kind's payload is well-formed (known path/action vocabulary, non-empty
// identifiers, sane ranges). It accepts events in any global order —
// merged timelines interleave hosts — and returns the first violation.
func Validate(events []Event) error {
	lastSeq := make(map[string]uint64)
	lastTNS := make(map[string]int64)
	for i := range events {
		ev := &events[i]
		if ev.Seq == 0 {
			return fmt.Errorf("trace: event %d (host %q): zero seq", i, ev.Host)
		}
		if prev, ok := lastSeq[ev.Host]; ok && ev.Seq <= prev {
			return fmt.Errorf("trace: event %d (host %q): seq %d not above %d", i, ev.Host, ev.Seq, prev)
		}
		lastSeq[ev.Host] = ev.Seq
		if prev, ok := lastTNS[ev.Host]; ok && ev.TNS < prev {
			return fmt.Errorf("trace: event %d (host %q): t_ns %d before %d", i, ev.Host, ev.TNS, prev)
		}
		lastTNS[ev.Host] = ev.TNS
		if err := validatePayload(ev); err != nil {
			return fmt.Errorf("trace: event %d (host %q, seq %d): %w", i, ev.Host, ev.Seq, err)
		}
	}
	return nil
}

func validatePayload(ev *Event) error {
	switch ev.Kind {
	case KindControl:
		c := &ev.Control
		if !validPaths[c.Path] {
			return fmt.Errorf("control: unknown path %q", c.Path)
		}
		if c.Tick <= 0 {
			return fmt.Errorf("control: tick %d not positive", c.Tick)
		}
		if c.Cores < 0 || c.Ways < 0 {
			return fmt.Errorf("control: negative allocation %d cores / %d ways", c.Cores, c.Ways)
		}
		if c.FreqGHz < 0 {
			return fmt.Errorf("control: negative frequency %g", c.FreqGHz)
		}
	case KindCap:
		c := &ev.Cap
		if !validActions[c.Action] {
			return fmt.Errorf("cap: unknown action %q", c.Action)
		}
		if c.CapW <= 0 {
			return fmt.Errorf("cap: cap %g W not positive", c.CapW)
		}
		if c.BEDuty < 0 || c.BEDuty > 1 {
			return fmt.Errorf("cap: duty %g outside [0,1]", c.BEDuty)
		}
	case KindPlacement:
		if ev.Place.BE == "" || ev.Place.Node == "" {
			return fmt.Errorf("placement: empty be %q or node %q", ev.Place.BE, ev.Place.Node)
		}
	case KindMigration:
		p := &ev.Place
		if p.BE == "" || p.Node == "" || p.From == "" {
			return fmt.Errorf("migration: empty be %q, node %q, or from %q", p.BE, p.Node, p.From)
		}
		if p.From == p.Node {
			return fmt.Errorf("migration: %q moved to itself (%q)", p.BE, p.Node)
		}
	case KindDegradation:
		if ev.Place.Reason == "" {
			return fmt.Errorf("degradation: empty reason")
		}
	case KindSolve:
		s := &ev.Solve
		if s.Method == "" {
			return fmt.Errorf("solve: empty method")
		}
		if s.Rows <= 0 || s.Cols <= 0 {
			return fmt.Errorf("solve: non-positive dimensions %dx%d", s.Rows, s.Cols)
		}
		if s.CellsComputed < 0 || s.CellsReused < 0 {
			return fmt.Errorf("solve: negative cell counters %d/%d", s.CellsComputed, s.CellsReused)
		}
		if s.BatchDirty < 0 || s.BatchRounds < 0 || s.BatchAugments < 0 {
			return fmt.Errorf("solve: negative batch counters %d/%d/%d",
				s.BatchDirty, s.BatchRounds, s.BatchAugments)
		}
	case KindSpan:
		if ev.Span.Name == "" {
			return fmt.Errorf("span: empty name")
		}
		if ev.Span.DurNS < 0 {
			return fmt.Errorf("span: negative duration %d ns", ev.Span.DurNS)
		}
	case KindBudgetShift, KindBudgetCut:
		c := &ev.Budget
		if c.Node == "" {
			return fmt.Errorf("budget: empty node")
		}
		for _, v := range []struct {
			name string
			val  float64
		}{{"from_w", c.FromW}, {"to_w", c.ToW}} {
			if math.IsNaN(v.val) || math.IsInf(v.val, 0) || v.val < 0 {
				return fmt.Errorf("budget: %s %g outside physical domain", v.name, v.val)
			}
		}
		if c.ToW <= 0 {
			return fmt.Errorf("budget: to_w %g not positive", c.ToW)
		}
	case KindHeartbeat:
		h := &ev.Heartbeat
		for _, v := range []struct {
			name string
			val  int64
		}{
			{"frames", int64(h.Frames)}, {"fulls", int64(h.Fulls)},
			{"deltas", int64(h.Deltas)}, {"stale", int64(h.Stale)},
			{"resyncs", int64(h.Resyncs)}, {"rejects", int64(h.Rejects)},
			{"bytes", h.Bytes},
		} {
			if v.val < 0 {
				return fmt.Errorf("heartbeat: negative %s %d", v.name, v.val)
			}
		}
		if h.Fulls+h.Deltas+h.Stale > h.Frames {
			return fmt.Errorf("heartbeat: %d fulls + %d deltas + %d stale exceed %d frames",
				h.Fulls, h.Deltas, h.Stale, h.Frames)
		}
	default:
		return fmt.Errorf("unknown kind %d", ev.Kind)
	}
	return nil
}

// WriteChromeTrace writes the events as a Chrome trace-event JSON array
// loadable in Perfetto or chrome://tracing. Each host becomes one thread
// track (a thread_name metadata record plus its events); spans become
// "X" complete events, everything else an "i" instant whose payload
// rides in args. Timestamps are microseconds of (simulated or
// controller) time; events are emitted in canonical sorted order so ts
// is monotone per track.
func WriteChromeTrace(w io.Writer, events []Event) error {
	sorted := append([]Event(nil), events...)
	SortEvents(sorted)

	tids := make(map[string]int)
	var hosts []string
	for i := range sorted {
		if _, ok := tids[sorted[i].Host]; !ok {
			tids[sorted[i].Host] = 0
			hosts = append(hosts, sorted[i].Host)
		}
	}
	// Track IDs follow first-appearance order in the sorted timeline,
	// which is itself deterministic.
	for i, h := range hosts {
		tids[h] = i + 1
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	emit := func(obj map[string]any) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(obj)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	for _, h := range hosts {
		name := h
		if name == "" {
			name = "(unnamed)"
		}
		if err := emit(map[string]any{
			"name": "thread_name", "ph": "M", "pid": 1, "tid": tids[h],
			"args": map[string]any{"name": name},
		}); err != nil {
			return err
		}
	}
	for i := range sorted {
		ev := &sorted[i]
		ts := float64(ev.TNS) / 1e3 // ns → µs
		base := map[string]any{
			"pid": 1, "tid": tids[ev.Host], "ts": ts,
			"cat": ev.Kind.String(),
		}
		if ev.Kind == KindSpan {
			base["ph"] = "X"
			base["name"] = ev.Span.Name
			base["dur"] = float64(ev.Span.DurNS) / 1e3
		} else {
			base["ph"] = "i"
			base["s"] = "t"
			base["name"] = chromeEventName(ev)
			base["args"] = chromeArgs(ev)
		}
		if err := emit(base); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func chromeEventName(ev *Event) string {
	switch ev.Kind {
	case KindControl:
		return "control " + ev.Control.Path
	case KindCap:
		return "cap " + ev.Cap.Action
	case KindPlacement:
		return "place " + ev.Place.BE
	case KindMigration:
		return "migrate " + ev.Place.BE
	case KindDegradation:
		return "degraded"
	case KindSolve:
		return "solve " + ev.Solve.Method
	case KindBudgetShift:
		return "budget-shift " + ev.Budget.Node
	case KindBudgetCut:
		return "budget-cut " + ev.Budget.Node
	case KindHeartbeat:
		return "heartbeat ingest"
	}
	return ev.Kind.String()
}

func chromeArgs(ev *Event) map[string]any {
	switch ev.Kind {
	case KindControl:
		c := &ev.Control
		return map[string]any{
			"tick": c.Tick, "load": c.Load, "target": c.Target,
			"slack_in": c.SlackIn, "boost": c.Boost, "cores": c.Cores,
			"ways": c.Ways, "freq_ghz": c.FreqGHz, "path": c.Path,
			"feasible": c.Feasible,
		}
	case KindCap:
		c := &ev.Cap
		return map[string]any{
			"power_w": c.PowerW, "cap_w": c.CapW, "action": c.Action,
			"be_freq_ghz": c.BEFreqGHz, "be_duty": c.BEDuty,
		}
	case KindPlacement, KindMigration, KindDegradation:
		p := &ev.Place
		return map[string]any{"be": p.BE, "node": p.Node, "from": p.From, "reason": p.Reason}
	case KindSolve:
		s := &ev.Solve
		args := map[string]any{"method": s.Method, "rows": s.Rows, "cols": s.Cols, "total": s.Total}
		if s.Pod != "" {
			args["pod"] = s.Pod
		}
		if s.CellsComputed != 0 || s.CellsReused != 0 {
			args["cells_computed"] = s.CellsComputed
			args["cells_reused"] = s.CellsReused
		}
		if s.BatchDirty != 0 || s.BatchRounds != 0 || s.BatchAugments != 0 {
			args["batch_dirty"] = s.BatchDirty
			args["batch_rounds"] = s.BatchRounds
			args["batch_augments"] = s.BatchAugments
		}
		return args
	case KindBudgetShift, KindBudgetCut:
		c := &ev.Budget
		return map[string]any{"node": c.Node, "from_w": c.FromW, "to_w": c.ToW, "reason": c.Reason}
	case KindHeartbeat:
		h := &ev.Heartbeat
		return map[string]any{
			"frames": h.Frames, "fulls": h.Fulls, "deltas": h.Deltas,
			"stale": h.Stale, "resyncs": h.Resyncs, "rejects": h.Rejects,
			"bytes": h.Bytes,
		}
	}
	return nil
}

// chromeEvent is the subset of the trace-event schema the validator
// checks.
type chromeEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	TS   *float64 `json:"ts"`
	Dur  float64  `json:"dur"`
	PID  *int     `json:"pid"`
	TID  *int     `json:"tid"`
}

// ValidateChromeTrace smoke-loads a Chrome trace export: the payload
// must be a well-formed JSON array whose records each carry a name and a
// known phase, non-span records carry pid/tid/ts, and ts is monotone
// (non-decreasing) per (pid, tid) track — the properties Perfetto's
// importer relies on.
func ValidateChromeTrace(r io.Reader) error {
	var records []chromeEvent
	dec := json.NewDecoder(r)
	if err := dec.Decode(&records); err != nil {
		return fmt.Errorf("trace: chrome export is not a JSON array: %w", err)
	}
	lastTS := make(map[string]float64)
	for i, rec := range records {
		if rec.Name == "" {
			return fmt.Errorf("trace: chrome record %d: empty name", i)
		}
		switch rec.Ph {
		case "M":
			continue // metadata carries no timestamp
		case "X", "i", "I", "B", "E", "b", "e", "n", "C":
		default:
			return fmt.Errorf("trace: chrome record %d (%q): unknown phase %q", i, rec.Name, rec.Ph)
		}
		if rec.TS == nil || rec.PID == nil || rec.TID == nil {
			return fmt.Errorf("trace: chrome record %d (%q): missing ts/pid/tid", i, rec.Name)
		}
		if *rec.TS < 0 || rec.Dur < 0 {
			return fmt.Errorf("trace: chrome record %d (%q): negative ts or dur", i, rec.Name)
		}
		track := strconv.Itoa(*rec.PID) + "/" + strconv.Itoa(*rec.TID)
		if prev, ok := lastTS[track]; ok && *rec.TS < prev {
			return fmt.Errorf("trace: chrome record %d (%q): ts %g before %g on track %s",
				i, rec.Name, *rec.TS, prev, track)
		}
		lastTS[track] = *rec.TS
	}
	return nil
}
