package trace

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func at(sec int64) time.Time { return time.Unix(sec, 0).UTC() }

func sampleControl(tick int) ControlDecision {
	return ControlDecision{
		Tick: tick, Load: 0.42, Target: 0.48, SlackIn: 0.11, Boost: 1,
		Cores: 4, Ways: 6, FreqGHz: 2.2, Path: PathPlannerWarm, Feasible: true,
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan("control_tick")
	tr.ControlDecision(at(1), sampleControl(1))
	tr.CapAction(at(1), CapAction{CapW: 100, Action: ActionThrottleFreq})
	tr.Placement(at(1), Placement{BE: "x264", Node: "a"})
	tr.Migration(at(1), Placement{BE: "x264", Node: "b", From: "a"})
	tr.Degradation(at(1), "all agents dead")
	tr.SolveSummary(at(1), SolveSummary{Method: "lp", Rows: 2, Cols: 2})
	sp.End(at(1))
	if tr.Events() != nil || tr.Len() != 0 || tr.Dropped() != 0 || tr.Host() != "" {
		t.Fatal("nil tracer leaked state")
	}
	if ev, next := tr.EventsSince(0, 10); ev != nil || next != 0 {
		t.Fatal("nil tracer EventsSince not empty")
	}
}

func TestDisabledPathZeroAllocs(t *testing.T) {
	var tr *Tracer
	now := at(5)
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.StartSpan("control_tick")
		tr.ControlDecision(now, sampleControl(1))
		tr.CapAction(now, CapAction{PowerW: 120, CapW: 100, Action: ActionThrottleDuty})
		sp.End(now)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocated %.1f/op, want 0", allocs)
	}
}

func TestRingWraparound(t *testing.T) {
	tr := New("h", 4)
	for i := 1; i <= 10; i++ {
		tr.ControlDecision(at(int64(i)), sampleControl(i))
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("Events len = %d, want 4", len(events))
	}
	for i, ev := range events {
		wantTick := i + 7 // ticks 7..10 survive
		if ev.Control.Tick != wantTick || ev.Seq != uint64(wantTick) {
			t.Fatalf("event %d: tick %d seq %d, want tick=seq=%d", i, ev.Control.Tick, ev.Seq, wantTick)
		}
		if ev.Host != "h" || ev.Kind != KindControl {
			t.Fatalf("event %d: host %q kind %v", i, ev.Host, ev.Kind)
		}
		if ev.TNS != at(int64(wantTick)).UnixNano() {
			t.Fatalf("event %d: t_ns %d", i, ev.TNS)
		}
	}
}

func TestEventsSincePagination(t *testing.T) {
	tr := New("h", 16)
	for i := 1; i <= 9; i++ {
		tr.ControlDecision(at(int64(i)), sampleControl(i))
	}
	var got []Event
	cursor := uint64(0)
	pages := 0
	for {
		events, next := tr.EventsSince(cursor, 4)
		if len(events) == 0 {
			if next != cursor {
				t.Fatalf("empty page moved cursor %d -> %d", cursor, next)
			}
			break
		}
		got = append(got, events...)
		cursor = next
		pages++
	}
	if pages != 3 || len(got) != 9 {
		t.Fatalf("pages=%d events=%d, want 3 pages / 9 events", pages, len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("page event %d has seq %d", i, ev.Seq)
		}
	}
	// After wraparound the cursor skips dropped events without stalling.
	small := New("s", 2)
	for i := 1; i <= 5; i++ {
		small.ControlDecision(at(int64(i)), sampleControl(i))
	}
	events, next := small.EventsSince(1, 0)
	if len(events) != 2 || events[0].Seq != 4 || next != 5 {
		t.Fatalf("post-wrap page = %d events, first seq %d, next %d", len(events), events[0].Seq, next)
	}
}

func TestSpanRecordsEvent(t *testing.T) {
	tr := New("h", 8)
	sp := tr.StartSpan("control_tick")
	time.Sleep(time.Millisecond)
	sp.End(at(3))
	events := tr.Events()
	if len(events) != 1 || events[0].Kind != KindSpan {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Span.Name != "control_tick" || events[0].Span.DurNS <= 0 {
		t.Fatalf("span payload = %+v", events[0].Span)
	}
}

func TestSetMergesDeterministically(t *testing.T) {
	build := func() *Set {
		s := NewSet(32)
		// Interleave appends across children from multiple goroutines;
		// per-child order is what matters.
		var wg sync.WaitGroup
		for _, host := range []string{"b", "a", "c"} {
			wg.Add(1)
			go func(host string) {
				defer wg.Done()
				tr := s.Tracer(host)
				for i := 1; i <= 5; i++ {
					tr.ControlDecision(at(int64(i)), sampleControl(i))
				}
			}(host)
		}
		wg.Wait()
		return s
	}
	a, b := build().Events(), build().Events()
	if !reflect.DeepEqual(stripWall(a), stripWall(b)) {
		t.Fatal("merged set timelines differ across identical runs")
	}
	if len(a) != 15 {
		t.Fatalf("merged %d events, want 15", len(a))
	}
	// Sorted by (t, host, seq): first three events are t=1 on a, b, c.
	if a[0].Host != "a" || a[1].Host != "b" || a[2].Host != "c" {
		t.Fatalf("merge order: %q %q %q", a[0].Host, a[1].Host, a[2].Host)
	}
	s := build()
	if s.Dropped() != 0 {
		t.Fatalf("dropped = %d", s.Dropped())
	}
	var nilSet *Set
	if nilSet.Tracer("x") != nil || nilSet.Events() != nil || nilSet.Dropped() != 0 {
		t.Fatal("nil set leaked state")
	}
}

func TestSetLabelUniquePerRun(t *testing.T) {
	s := NewSet(8)
	var got []string
	for _, kind := range []string{"server", "batch", "server", "server"} {
		got = append(got, s.Label(kind))
	}
	if want := []string{"server/", "batch/", "server#2/", "server#3/"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("labels %q, want %q", got, want)
	}
	var nilSet *Set
	if l := nilSet.Label("server"); l != "" {
		t.Fatalf("nil set label %q, want empty", l)
	}
}

func stripWall(events []Event) []Event {
	out := append([]Event(nil), events...)
	for i := range out {
		out[i].WallNS = 0
		if out[i].Kind == KindSpan {
			out[i].Span.DurNS = 0
		}
	}
	return out
}

func TestConcurrentRecordAndRead(t *testing.T) {
	tr := New("h", 64)
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 1; i <= 200; i++ {
				sp := tr.StartSpan("cap_tick")
				tr.CapAction(at(int64(i)), CapAction{PowerW: 100, CapW: 90, Action: ActionThrottleFreq, BEDuty: 1})
				sp.End(at(int64(i)))
			}
		}(g)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr.Events()
			tr.EventsSince(0, 8)
			tr.Dropped()
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	// Each writer records a cap action and a span event per iteration.
	if got := uint64(tr.Len()) + tr.Dropped(); got != 1600 {
		t.Fatalf("retained + dropped events = %d, want 1600", got)
	}
	if tr.Len() != 64 {
		t.Fatalf("ring length = %d, want 64", tr.Len())
	}
}

// TestEventsSinceAcrossGrowthAndWrap paginates with a held cursor while
// the ring doubles underneath (growth between pages) and then wraps
// (eviction overtakes the cursor). The pagination contract: no event is
// returned twice, sequences stay strictly ascending, and every event
// still retained when its page is fetched is returned exactly once.
func TestEventsSinceAcrossGrowthAndWrap(t *testing.T) {
	tr := New("h", 256) // ringSeed=64, so the ring doubles at 64 and 128
	total := 0
	record := func(n int) {
		for i := 0; i < n; i++ {
			total++
			tr.ControlDecision(at(int64(total)), sampleControl(total))
		}
	}

	// Page while the ring grows: fetch a page, then record enough events
	// to force a doubling (and finally a wrap) before the next fetch.
	record(60)
	var got []Event
	cursor := uint64(0)
	for _, burst := range []int{30, 70, 104} { // ring: 64 -> 128 -> 256 -> wraps
		events, next := tr.EventsSince(cursor, 25)
		got = append(got, events...)
		cursor = next
		record(burst)
	}
	// Drain whatever is left.
	for {
		events, next := tr.EventsSince(cursor, 25)
		if len(events) == 0 {
			if next != cursor {
				t.Fatalf("empty page moved cursor %d -> %d", cursor, next)
			}
			break
		}
		got = append(got, events...)
		cursor = next
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("page events out of order or duplicated: seq %d after %d", got[i].Seq, got[i-1].Seq)
		}
	}
	if cursor != tr.lastSeq() {
		t.Fatalf("drained cursor %d != last seq %d", cursor, tr.lastSeq())
	}

	// Page across a wraparound: a small ring wraps while a stale cursor is
	// held. The next page must resume at the oldest retained event with no
	// duplicates and no stall.
	small := New("s", 4)
	record2 := func(n int) {
		for i := 0; i < n; i++ {
			small.ControlDecision(at(int64(i)), sampleControl(i))
		}
	}
	record2(3)
	events, next := small.EventsSince(0, 2)
	if len(events) != 2 || next != 2 {
		t.Fatalf("pre-wrap page = %d events, next %d", len(events), next)
	}
	record2(9) // seqs 4..12; ring keeps 9..12, cursor 2 is far behind
	events, next = small.EventsSince(next, 0)
	if len(events) != 4 || events[0].Seq != 9 || next != 12 {
		t.Fatalf("post-wrap page = %d events, first seq %d, next %d",
			len(events), events[0].Seq, next)
	}
	if small.Dropped() != 8 {
		t.Fatalf("dropped = %d, want 8", small.Dropped())
	}
}

// lastSeq exposes the newest assigned sequence number for test
// assertions.
func (t *Tracer) lastSeq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// TestSetChildrenGrowthRace hammers a Set with parallel per-host writers
// whose rings are forced through every geometric doubling (capacity far
// above ringSeed) while concurrent readers page, merge, and snapshot.
// Run under -race this is the regression net for the ring-growth
// reallocation path: a torn ring swap shows up as a data race or as a
// merged timeline with missing or duplicated sequences.
func TestSetChildrenGrowthRace(t *testing.T) {
	const hosts, perHost = 8, 600 // 600 > 64*2*2*2: three doublings per child
	set := NewSet(1024)
	var writers sync.WaitGroup
	for h := 0; h < hosts; h++ {
		writers.Add(1)
		go func(h int) {
			defer writers.Done()
			tr := set.Tracer(hostName(h))
			for i := 1; i <= perHost; i++ {
				tr.ControlDecision(at(int64(i)), sampleControl(i))
			}
		}(h)
	}
	stop := make(chan struct{})
	readers := make(chan struct{})
	go func() {
		defer close(readers)
		cursors := make(map[string]uint64, hosts)
		for {
			select {
			case <-stop:
				return
			default:
			}
			set.Events()
			set.Dropped()
			for h := 0; h < hosts; h++ {
				tr := set.Tracer(hostName(h))
				events, next := tr.EventsSince(cursors[hostName(h)], 64)
				for i := 1; i < len(events); i++ {
					if events[i].Seq <= events[i-1].Seq {
						t.Errorf("host %d page out of order: seq %d after %d", h, events[i].Seq, events[i-1].Seq)
						return
					}
				}
				cursors[hostName(h)] = next
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readers

	for h := 0; h < hosts; h++ {
		tr := set.Tracer(hostName(h))
		if tr.Len() != perHost {
			t.Fatalf("host %d retained %d events, want %d", h, tr.Len(), perHost)
		}
		events := tr.Events()
		for i, ev := range events {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("host %d event %d has seq %d", h, i, ev.Seq)
			}
		}
	}
	if merged := set.Events(); len(merged) != hosts*perHost {
		t.Fatalf("merged timeline has %d events, want %d", len(merged), hosts*perHost)
	}
}

func hostName(h int) string { return "host-" + string(rune('a'+h)) }
