package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pocolo/internal/trace"
	"pocolo/internal/utility"
)

// streamTestController builds a streaming controller over fake agent URLs
// with a deterministic clock that advances one heartbeat per Round.
func streamTestController(t *testing.T, n, podSize int, mut func(*ControllerConfig)) (*Controller, []string, func()) {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://stream-agent-%d", i)
	}
	clock := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	cfg := ControllerConfig{
		AgentURLs: urls,
		Transport: TransportStream,
		PodSize:   podSize,
		DeadAfter: 2,
		Heartbeat: time.Second,
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return clock
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	ctl, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tick := func() {
		mu.Lock()
		clock = clock.Add(time.Second)
		mu.Unlock()
	}
	return ctl, urls, tick
}

// streamTestStats builds a full snapshot rich enough for the round loop
// to resolve over: identity, the LC envelope, the fitted LC model, and
// the named best-effort candidates with their models.
func streamTestStats(t testing.TB, name string, bes ...string) StatsResponse {
	t.Helper()
	models := fixtureModels(t)
	lc := spec(t, "xapian")
	st := codecStats()
	st.Agent = name
	st.LC = lc.Name
	st.PeakLoad = lc.PeakLoad
	st.ProvisionedPowerW = lc.ProvisionedPowerW
	st.LCModel = models[lc.Name]
	st.AssignedBE = ""
	st.BECandidates = bes
	st.BEModels = make(map[string]*utility.Model, len(bes))
	for _, be := range bes {
		st.BEModels[be] = models[be]
	}
	return st
}

func TestStreamIngestAndView(t *testing.T) {
	ctl, urls, _ := streamTestController(t, 3, 2, nil) // 2 shards: {0,1}, {2}

	encs := make([]*HeartbeatEncoder, len(urls))
	for i, u := range urls {
		encs[i] = NewHeartbeatEncoder(fmt.Sprintf("agent-%d", i), u)
	}
	st := codecStats()
	for i, enc := range encs {
		st.Agent = fmt.Sprintf("agent-%d", i)
		frame, err := enc.Encode(st, 1)
		if err != nil {
			t.Fatal(err)
		}
		ack := ctl.IngestHeartbeat(frame)
		if ack.Reject || ack.Resync || ack.Seq != 1 {
			t.Fatalf("full frame %d ack %+v", i, ack)
		}
		enc.Ack(ack)
	}
	for i, u := range urls {
		v := ctl.stream.view(u)
		if v == nil {
			t.Fatalf("no view for %s after full frame", u)
		}
		if v.stats.Agent != fmt.Sprintf("agent-%d", i) || v.seq != 1 {
			t.Fatalf("view %d = %+v", i, v)
		}
	}

	// A delta moves only its masked fields and swaps a fresh snapshot.
	before := ctl.stream.view(urls[1])
	st.Agent = "agent-1"
	st.PowerW = 171.5
	frame, err := encs[1].Encode(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ack := ctl.IngestHeartbeat(frame); ack.Resync || ack.Reject {
		t.Fatalf("delta ack %+v", ack)
	}
	after := ctl.stream.view(urls[1])
	if after == before {
		t.Fatal("delta did not publish a new snapshot")
	}
	if after.stats.PowerW != 171.5 || after.seq != 2 || after.epoch != 2 {
		t.Fatalf("delta view %+v", after)
	}
	if before.stats.PowerW == 171.5 {
		t.Fatal("published view mutated in place; snapshots must be immutable")
	}
	// The sibling pod's views are untouched pointers.
	if v := ctl.stream.view(urls[2]); v.seq != 1 {
		t.Fatalf("unrelated view advanced: %+v", v)
	}

	// Replay is stale; a delta from an unbound name demands resync;
	// garbage is rejected. Counters account for every frame.
	if ack := ctl.IngestHeartbeat(frame); !ack.Resync && ack.Seq != 2 {
		t.Fatalf("replay ack %+v", ack)
	}
	orphan, err := EncodeHeartbeat(&Heartbeat{Agent: "nobody", Seq: 5, Base: 4, Mask: 1, Stats: StatsResponse{PowerW: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ack := ctl.IngestHeartbeat(orphan); !ack.Resync {
		t.Fatalf("orphan delta ack %+v", ack)
	}
	if ack := ctl.IngestHeartbeat([]byte("garbage")); !ack.Reject {
		t.Fatalf("garbage ack %+v", ack)
	}
	s := ctl.StreamStats()
	if s.Frames != 7 || s.Fulls != 3 || s.Deltas != 3 || s.Rejects != 1 || s.Resyncs != 1 || s.Stale != 1 {
		t.Fatalf("stream stats %+v", s)
	}
	if s.Bytes == 0 {
		t.Fatal("no bytes accounted")
	}
}

func TestStreamFullFrameFromUnknownURLRefused(t *testing.T) {
	ctl, _, _ := streamTestController(t, 2, 64, nil)
	enc := NewHeartbeatEncoder("intruder", "http://not-in-fleet")
	st := codecStats()
	st.Agent = "intruder"
	frame, err := enc.Encode(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ack := ctl.IngestHeartbeat(frame); !ack.Resync {
		t.Fatalf("unconfigured URL ack %+v, want resync refusal", ack)
	}
	if v, ok := ctl.stream.names.Load("intruder"); ok {
		t.Fatalf("intruder bound to slot %v", v)
	}
}

func TestIngestBatchAcksInFrameOrder(t *testing.T) {
	ctl, urls, _ := streamTestController(t, 5, 2, nil) // 3 shards
	frames := make([][]byte, 0, 7)
	st := codecStats()
	for i, u := range urls {
		enc := NewHeartbeatEncoder(fmt.Sprintf("agent-%d", i), u)
		st.Agent = fmt.Sprintf("agent-%d", i)
		frame, err := enc.Encode(st, 1)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	frames = append(frames, []byte{0x00}) // reject
	frames = append(frames, frames[2])    // replayed full → resync demand
	acks := ctl.IngestBatch(frames)
	if len(acks) != 7 {
		t.Fatalf("%d acks for 7 frames", len(acks))
	}
	for i := 0; i < 5; i++ {
		if acks[i].Reject || acks[i].Resync || acks[i].Agent != fmt.Sprintf("agent-%d", i) {
			t.Fatalf("ack %d = %+v", i, acks[i])
		}
	}
	if !acks[5].Reject {
		t.Fatalf("garbage ack %+v", acks[5])
	}
	if acks[6].Reject || !acks[6].Resync || acks[6].Agent != "agent-2" {
		t.Fatalf("replayed-full ack %+v", acks[6])
	}
	s := ctl.StreamStats()
	if s.Frames != 7 || s.Fulls != 6 || s.Resyncs != 1 || s.Stale != 0 || s.Rejects != 1 {
		t.Fatalf("stream stats %+v", s)
	}
	for _, u := range urls {
		if ctl.stream.view(u) == nil {
			t.Fatalf("no view for %s after batch", u)
		}
	}
}

// TestIngestBatchRejectsOverflow pins the batch limit: a frame past
// maxHeartbeatBatch gets a reject ack (so its sender falls back to a full
// frame) and is counted, never silently dropped with a zero ack.
func TestIngestBatchRejectsOverflow(t *testing.T) {
	ctl, urls, _ := streamTestController(t, 1, 64, nil)
	frame, err := NewHeartbeatEncoder("agent-0", urls[0]).Encode(streamTestStats(t, "agent-0"), 1)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, maxHeartbeatBatch+1)
	for i := range frames[:maxHeartbeatBatch] {
		frames[i] = []byte{0x00} // malformed: rejected by the decoder
	}
	frames[maxHeartbeatBatch] = frame // valid, but one past the limit
	acks := ctl.IngestBatch(frames)
	if len(acks) != len(frames) {
		t.Fatalf("%d acks for %d frames", len(acks), len(frames))
	}
	if last := acks[maxHeartbeatBatch]; !last.Reject {
		t.Fatalf("overflow frame ack = %+v, want a reject", last)
	}
	if s := ctl.StreamStats(); s.Rejects != int64(len(frames)) || s.Frames != int64(len(frames)) {
		t.Fatalf("stream stats %+v, want %d frames, all rejected", s, len(frames))
	}
	if v := ctl.stream.view(urls[0]); v != nil {
		t.Fatalf("overflow frame applied: %+v", v)
	}
}

func TestHeartbeatHandlerHTTP(t *testing.T) {
	ctl, urls, _ := streamTestController(t, 1, 64, nil)
	srv := httptest.NewServer(http.HandlerFunc(ctl.HeartbeatHandler))
	defer srv.Close()

	if resp, err := http.Get(srv.URL); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}

	resp, err := http.Post(srv.URL, "application/octet-stream", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	var ack HeartbeatAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !ack.Reject {
		t.Fatalf("junk frame: status %d ack %+v", resp.StatusCode, ack)
	}

	enc := NewHeartbeatEncoder("agent-0", urls[0])
	st := codecStats()
	st.Agent = "agent-0"
	frame, err := enc.Encode(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL, "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	ack = HeartbeatAck{} // reject is omitempty; don't inherit the previous decode
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ack.Resync || ack.Reject || ack.Seq != 1 {
		t.Fatalf("good frame: status %d ack %+v", resp.StatusCode, ack)
	}

	// A poll-transport controller refuses the route outright.
	pollCtl, err := NewController(ControllerConfig{AgentURLs: []string{"http://a"}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	pollCtl.HeartbeatHandler(rec, httptest.NewRequest(http.MethodPost, RouteHeartbeat, bytes.NewReader(frame)))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("poll controller heartbeat status %d", rec.Code)
	}
}

// TestStreamRoundLiveness drives the full liveness cycle over the
// streaming transport: discovery on first frames, death after DeadAfter
// silent rounds, rejoin on the next applied frame — and the per-round
// heartbeat summaries land in the decision trace.
func TestStreamRoundLiveness(t *testing.T) {
	tracer := trace.New("controller", 256)
	ctl, urls, tick := streamTestController(t, 2, 64, func(cfg *ControllerConfig) {
		cfg.Trace = tracer
	})
	ctx := context.Background()
	encs := make([]*HeartbeatEncoder, len(urls))
	stats := make([]StatsResponse, len(urls))
	for i, u := range urls {
		encs[i] = NewHeartbeatEncoder(fmt.Sprintf("agent-%d", i), u)
		stats[i] = streamTestStats(t, fmt.Sprintf("agent-%d", i))
	}
	push := func(i int) {
		t.Helper()
		stats[i].SimSec++ // something always moves
		frame, err := encs[i].Encode(stats[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		ack := ctl.IngestHeartbeat(frame)
		if ack.Reject {
			t.Fatalf("push %d rejected", i)
		}
		encs[i].Ack(ack)
	}

	tick()
	push(0)
	push(1)
	ctl.Round(ctx)
	st := ctl.Status()
	if !st.Agents[0].Alive || !st.Agents[1].Alive {
		t.Fatalf("agents not discovered: %+v", st.Agents)
	}
	if st.Agents[0].Name != "agent-0" {
		t.Fatalf("name not adopted: %+v", st.Agents[0])
	}

	// Agent 1 goes silent; agent 0 keeps pushing. DeadAfter=2.
	for r := 0; r < 2; r++ {
		tick()
		push(0)
		ctl.Round(ctx)
	}
	st = ctl.Status()
	if !st.Agents[0].Alive || st.Agents[1].Alive {
		t.Fatalf("liveness after silence: %+v", st.Agents)
	}
	if st.Deaths != 1 {
		t.Fatalf("deaths = %d", st.Deaths)
	}

	// One applied frame brings it back the same round.
	tick()
	push(0)
	push(1)
	ctl.Round(ctx)
	st = ctl.Status()
	if !st.Agents[1].Alive || st.Rejoins != 1 {
		t.Fatalf("rejoin: %+v rejoins=%d", st.Agents[1], st.Rejoins)
	}

	heartbeatEvents := 0
	for _, ev := range tracer.Events() {
		if ev.Kind == trace.KindHeartbeat {
			heartbeatEvents++
			if ev.Heartbeat.Frames <= 0 {
				t.Fatalf("heartbeat event without summary: %+v", ev)
			}
		}
	}
	if heartbeatEvents == 0 {
		t.Fatal("no KindHeartbeat events traced")
	}
}

// stallTransport routes assign/cap pushes: requests to the slow URL block
// until the request context is cancelled; all others ack instantly and
// are counted.
type stallTransport struct {
	slowURL string
	fast    atomic.Int64
}

func (s *stallTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasPrefix(req.URL.String(), s.slowURL) {
		<-req.Context().Done() // hold the connection until the push timeout
		return nil, req.Context().Err()
	}
	s.fast.Add(1)
	body, _ := json.Marshal(AssignResponse{Agent: "x"})
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       httpBody(body),
		Header:     make(http.Header),
		Request:    req,
	}, nil
}

func httpBody(b []byte) *bodyCloser { return &bodyCloser{Reader: *bytes.NewReader(b)} }

type bodyCloser struct{ bytes.Reader }

func (b *bodyCloser) Close() error { return nil }

// TestSlowAgentCannotStallRound is the regression test for the round
// loop's push phase: one agent holding its connection open for the full
// timeout must cost the round at most ~one timeout, with every other
// agent's push — including agents in the same pod and other pods —
// delivered concurrently, and the slow agent's push NOT recorded as
// applied state.
func TestSlowAgentCannotStallRound(t *testing.T) {
	const n = 6
	tr := &stallTransport{}
	ctl, urls, tick := streamTestController(t, n, 2, func(cfg *ControllerConfig) {
		cfg.Timeout = 150 * time.Millisecond
		cfg.BE = []string{"graph#0", "graph#1", "graph#2", "lstm#0", "lstm#1", "lstm#2"}
		cfg.Client = &http.Client{Transport: tr}
	})
	tr.slowURL = urls[0]

	for i, u := range urls {
		name := fmt.Sprintf("agent-%d", i)
		full := streamTestStats(t, name, "graph", "lstm")
		enc := NewHeartbeatEncoder(name, u)
		frame, err := enc.Encode(full, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ack := ctl.IngestHeartbeat(frame); ack.Reject || ack.Resync {
			t.Fatalf("seed frame %d: %+v", i, ack)
		}
	}

	tick()
	start := time.Now()
	ctl.Round(context.Background())
	elapsed := time.Since(start)

	// Serial pushing would cost ≥ one timeout per queued push behind the
	// slow agent; the pool must keep it to ~one timeout total.
	if elapsed > 450*time.Millisecond {
		t.Fatalf("round took %v with one slow agent (timeout 150ms); pushes are serialized", elapsed)
	}
	if got := tr.fast.Load(); got != n-1 {
		t.Fatalf("%d fast pushes delivered, want %d", got, n-1)
	}
	st := ctl.Status()
	for _, a := range st.Agents {
		if a.URL == urls[0] {
			if a.AssignedBE != "" {
				t.Fatalf("unacked push recorded on slow agent: %+v", a)
			}
		} else if a.AssignedBE == "" {
			t.Fatalf("acked push not recorded on %s", a.URL)
		}
	}
}
