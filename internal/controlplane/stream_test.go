package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
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

// view returns a copy of the decoder state for a configured agent URL
// (nil before the agent's first applied frame).
func (s *streamState) view(url string) *hbDecoder {
	slot, ok := s.slots[url]
	if !ok {
		return nil
	}
	return s.viewAt(slot)
}

// viewAt returns a copy of the decoder state for a global slot, read
// under its shard's lock (nil before the agent's first applied frame).
func (s *streamState) viewAt(slot int) *hbDecoder {
	sh, li := s.shardOf(slot)
	sh.mu.Lock()
	d := sh.decs[li]
	sh.mu.Unlock()
	if d.seq == 0 {
		return nil
	}
	return &d
}

func TestStreamIngestAndView(t *testing.T) {
	ctl, urls, tick := streamTestController(t, 3, 2, func(cfg *ControllerConfig) {
		cfg.Client = &http.Client{Transport: &stallTransport{}} // acks the rounds' pushes
	}) // 2 shards: {0,1}, {2}

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

	// A round folds every report into the controller's state.
	tick()
	ctl.Round(context.Background())
	if got := ctl.Status().Agents[1].PowerW; got != st.PowerW {
		t.Fatalf("folded power %v, want %v", got, st.PowerW)
	}

	// A delta moves only its masked fields, in the decoder only: the
	// controller's state changes when the next round copies it out.
	before := st.PowerW
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
	if after.stats.PowerW != 171.5 || after.seq != 2 || after.epoch != 2 {
		t.Fatalf("delta view %+v", after)
	}
	if got := ctl.Status().Agents[1].PowerW; got != before {
		t.Fatalf("ingest moved the folded report to %v before a round", got)
	}
	tick()
	ctl.Round(context.Background())
	if got := ctl.Status().Agents[1].PowerW; got != 171.5 {
		t.Fatalf("round folded power %v, want 171.5", got)
	}
	// The sibling pod's decoder is untouched.
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

// cloneModel deep-copies a fitted model.
func cloneModel(m *utility.Model) *utility.Model {
	c := *m
	c.Resources, c.Alpha, c.P = slices.Clone(m.Resources), slices.Clone(m.Alpha), slices.Clone(m.P)
	return &c
}

// TestSameInputsBitForBit holds the refit comparison to every placement
// input, bit for bit and without allocating: a deep copy with other
// fields changed is the same, and a change to any one input field is a
// refit. A decoder that applies the copy as a full frame counts no refit
// and keeps the models it had; a changed full frame is a refit.
func TestSameInputsBitForBit(t *testing.T) {
	prev := streamTestStats(t, "agent-a", "graph", "lstm")
	prev.PeakLoad = math.NaN() // a NaN equals itself bit for bit
	next := func() StatsResponse {
		st := prev
		st.LCModel = cloneModel(prev.LCModel)
		st.BEModels = make(map[string]*utility.Model, len(prev.BEModels))
		for be, m := range prev.BEModels {
			st.BEModels[be] = cloneModel(m)
		}
		st.PowerW, st.CapW, st.AssignedBE, st.SimSec = 99, 120, "graph", 42
		return st
	}
	same := next()
	if !sameInputs(&prev, &same) {
		t.Fatal("a deep copy differs")
	}
	if allocs := testing.AllocsPerRun(100, func() { sameInputs(&prev, &same) }); allocs != 0 {
		t.Fatalf("sameInputs allocates %v objects", allocs)
	}
	for name, change := range map[string]func(*StatsResponse){
		"name":                  func(st *StatsResponse) { st.Agent = "agent-b" },
		"platform":              func(st *StatsResponse) { st.Machine.IdlePowerW++ },
		"peak load":             func(st *StatsResponse) { st.PeakLoad = 1 },
		"provisioned power":     func(st *StatsResponse) { st.ProvisionedPowerW++ },
		"no LC model":           func(st *StatsResponse) { st.LCModel = nil },
		"LC model app":          func(st *StatsResponse) { st.LCModel.App = "sphinx" },
		"LC model resources":    func(st *StatsResponse) { st.LCModel.Resources = st.LCModel.Resources[1:] },
		"LC model alpha0":       func(st *StatsResponse) { st.LCModel.Alpha0 *= 1 + 1e-15 },
		"LC model alpha":        func(st *StatsResponse) { st.LCModel.Alpha[0] *= 1 + 1e-15 },
		"LC model static power": func(st *StatsResponse) { st.LCModel.PStatic++ },
		"LC model power":        func(st *StatsResponse) { st.LCModel.P[len(st.LCModel.P)-1]++ },
		"LC model fit":          func(st *StatsResponse) { st.LCModel.PerfR2, st.LCModel.PowerR2 = st.LCModel.PowerR2, st.LCModel.PerfR2 },
		"LC model samples":      func(st *StatsResponse) { st.LCModel.N++ },
		"BE model value":        func(st *StatsResponse) { st.BEModels["lstm"].P[0]++ },
		"BE model dropped":      func(st *StatsResponse) { delete(st.BEModels, "lstm") },
		"BE model renamed":      func(st *StatsResponse) { st.BEModels["graph#1"] = st.BEModels["graph"]; delete(st.BEModels, "graph") },
	} {
		st := next()
		change(&st)
		if sameInputs(&prev, &st) {
			t.Errorf("%s: no refit", name)
		}
	}
	zero, negZero := prev, same
	zero.ProvisionedPowerW, negZero.ProvisionedPowerW = 0, math.Copysign(0, -1)
	if sameInputs(&zero, &negZero) {
		t.Error("0 W and -0 W provisioned: no refit")
	}

	var d hbDecoder
	refit := next()
	refit.ProvisionedPowerW++
	for k, st := range []StatsResponse{prev, same, refit} {
		hb := Heartbeat{Full: true, Seq: uint64(k + 1), Stats: st}
		if v := d.apply(&hb); v != hbApplied {
			t.Fatalf("frame %d: verdict %v", hb.Seq, v)
		}
		if want := []uint64{1, 1, 3}[k]; d.refitSeq != want {
			t.Fatalf("frame %d: refit seq %d, want %d", hb.Seq, d.refitSeq, want)
		}
		if want := []*utility.Model{prev.LCModel, prev.LCModel, refit.LCModel}[k]; d.stats.LCModel != want || d.stats.PowerW != st.PowerW {
			t.Fatalf("frame %d: applied LC model %p and power %v, want %p and %v", hb.Seq, d.stats.LCModel, d.stats.PowerW, want, st.PowerW)
		}
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
	if v, ok := ctl.stream.names["intruder"]; ok {
		t.Fatalf("intruder bound to slot %v", v.slot)
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

// TestPostHeartbeat drives PostHeartbeat against each reply a
// controller or a proxy in front of it gives. A 200 ack and a 400 reject
// ack come back as acks. A JSON error body (404 from a poll-mode
// controller, 413 for an oversized frame, 400 without a reject ack) and
// a non-JSON 502 come back as errors naming the status, never as a zero
// ack.
func TestPostHeartbeat(t *testing.T) {
	const agentURL = "http://agent-a:7001"
	controller := func(transport string) http.HandlerFunc {
		ctl, err := NewController(ControllerConfig{AgentURLs: []string{agentURL}, Transport: transport})
		if err != nil {
			t.Fatal(err)
		}
		return ctl.HeartbeatHandler
	}
	reply := func(status int, body string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(status)
			_, _ = w.Write([]byte(body))
		}
	}
	full, err := NewHeartbeatEncoder("agent-a", agentURL).Encode(StatsResponse{Agent: "agent-a"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		handler http.HandlerFunc
		frame   []byte
		want    HeartbeatAck
		wantErr string // "" = an ack, no error
	}{
		{"200 ack", controller(TransportStream), full, HeartbeatAck{Agent: "agent-a", Seq: 1}, ""},
		{"400 reject ack", controller(TransportStream), []byte("not a frame"), HeartbeatAck{Reject: true}, ""},
		{"404 from a poll-mode controller", controller(TransportPoll), full, HeartbeatAck{}, "404 Not Found"},
		{"413 oversized frame", reply(http.StatusRequestEntityTooLarge, `{"error":"frame exceeds 1049408 bytes"}`), full,
			HeartbeatAck{}, "413 Request Entity Too Large"},
		{"400 without a reject ack", reply(http.StatusBadRequest, `{"error":"reading frame: unexpected EOF"}`), full,
			HeartbeatAck{}, "400 Bad Request"},
		{"502 non-JSON", reply(http.StatusBadGateway, "<html>bad gateway</html>"), full, HeartbeatAck{}, "502 Bad Gateway"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.handler)
			defer srv.Close()
			ack, err := PostHeartbeat(context.Background(), srv.Client(), srv.URL, tc.frame)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("error %v, want ack %+v", err, tc.want)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error %v, want one naming %q", err, tc.wantErr)
			}
			if ack != tc.want {
				t.Fatalf("ack %+v, want %+v", ack, tc.want)
			}
		})
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

// stallTransport routes assign/cap pushes: requests to a slow agent
// (keyed by base URL) block until the request context is cancelled; all
// others ack instantly and are counted.
type stallTransport struct {
	slow map[string]bool
	fast atomic.Int64
}

func (s *stallTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if s.slow[req.URL.Scheme+"://"+req.URL.Host] {
		<-req.Context().Done() // hold the connection until the push timeout
		return nil, context.Cause(req.Context())
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
	tr.slow = map[string]bool{urls[0]: true}

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

// TestManySlowAgentsRoundBound holds the push phase to its stall bound
// with more stalled agents than the fan-out's upfront workers: 66 of 70
// agents hold their connections for the full timeout, and the fan-out
// starts a worker past each blocked push, so the stalls wait out one
// timeout together where maxRPCWorkers workers would need ⌈66/32⌉ = 3.
// Every fast agent's push is delivered and recorded, no stalled push is
// recorded, and the round ends within one and a half timeouts.
func TestManySlowAgentsRoundBound(t *testing.T) {
	const n, fast = 70, 4
	const timeout = 100 * time.Millisecond
	bes := make([]string, n)
	for i := range bes {
		bes[i] = fmt.Sprintf("%s#%d", []string{"graph", "lstm"}[i%2], i/2)
	}
	tr := &stallTransport{slow: make(map[string]bool, n-fast)}
	ctl, urls, tick := streamTestController(t, n, 16, func(cfg *ControllerConfig) {
		cfg.Timeout = timeout
		cfg.BE = bes
		cfg.Client = &http.Client{Transport: tr}
	})
	for i, u := range urls {
		if i%18 != 0 { // agents 0, 18, 36 and 54 answer at once
			tr.slow[u] = true
		}
		name := fmt.Sprintf("agent-%d", i)
		frame, err := NewHeartbeatEncoder(name, u).Encode(streamTestStats(t, name, "graph", "lstm"), 1)
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

	const stalled = n - fast
	const bound = timeout + timeout/2
	if elapsed > bound {
		t.Fatalf("round took %v with %d stalled agents (timeout %v), over the %v bound", elapsed, stalled, timeout, bound)
	}
	if got := tr.fast.Load(); got != fast {
		t.Fatalf("%d fast pushes delivered, want %d", got, fast)
	}
	for _, a := range ctl.Status().Agents {
		if tr.slow[a.URL] && a.AssignedBE != "" {
			t.Fatalf("unacked push recorded on stalled agent: %+v", a)
		}
		if !tr.slow[a.URL] && a.AssignedBE == "" {
			t.Fatalf("acked push not recorded on %s", a.URL)
		}
	}
}

// ingestTestURLs is the fleet checkIngestEntryPoints' controllers serve:
// the URL fuzzSeedFrames advertise, a pod-mate, and an agent in a second
// pod (PodSize 2).
var ingestTestURLs = []string{"http://agent-a:7001", "http://agent-b:7001", "http://agent-c:7001"}

// checkIngestEntryPoints sends frames one at a time through
// IngestHeartbeat on one controller and in a single IngestBatch call on
// a twin, and requires the two to agree on every ack, on StreamStats and
// on every decoder's state. It returns the acks and the stats.
func checkIngestEntryPoints(t *testing.T, frames [][]byte) ([]HeartbeatAck, StreamStats) {
	t.Helper()
	clock := time.Unix(1_700_000_000, 0)
	twin := func() *Controller {
		ctl, err := NewController(ControllerConfig{
			AgentURLs: ingestTestURLs,
			Transport: TransportStream,
			PodSize:   2,
			Now:       func() time.Time { return clock },
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctl
	}
	one, batch := twin(), twin()
	acks := make([]HeartbeatAck, len(frames))
	for i, frame := range frames {
		acks[i] = one.IngestHeartbeat(frame)
	}
	if got := batch.IngestBatch(frames); !reflect.DeepEqual(got, acks) {
		t.Fatalf("acks differ:\n IngestHeartbeat %+v\n IngestBatch     %+v", acks, got)
	}
	stats := one.StreamStats()
	if got := batch.StreamStats(); got != stats {
		t.Fatalf("stream stats differ:\n IngestHeartbeat %+v\n IngestBatch     %+v", stats, got)
	}
	for slot, url := range ingestTestURLs {
		if a, b := one.stream.viewAt(slot), batch.stream.viewAt(slot); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: decoders differ:\n IngestHeartbeat %+v\n IngestBatch     %+v", url, a, b)
		}
	}
	return acks, stats
}

// ingestScenarioFrames is one frame of every fate, for the fleet of
// ingestTestURLs: full frames and deltas that apply in both pods, a
// duplicate delta, a delta past a gap, a delta from a name no full frame
// bound, a full frame from an unconfigured URL, garbage, and a replayed
// full frame behind the receiver's watermark.
func ingestScenarioFrames(tb testing.TB) [][]byte {
	tb.Helper()
	encode := func(hb *Heartbeat) []byte {
		tb.Helper()
		frame, err := EncodeHeartbeat(hb)
		if err != nil {
			tb.Fatal(err)
		}
		return frame
	}
	full := func(name, url string, seq uint64) []byte {
		st := codecStats()
		st.Agent = name
		return encode(&Heartbeat{Agent: name, URL: url, Seq: seq, Epoch: seq, Full: true, Stats: st})
	}
	delta := func(name string, seq, base uint64) []byte {
		// Mask bit 0 is power_w.
		return encode(&Heartbeat{Agent: name, Seq: seq, Base: base, Epoch: seq, Mask: 1, Stats: StatsResponse{PowerW: float64(100 + seq)}})
	}
	a, c := ingestTestURLs[0], ingestTestURLs[2]
	dup := delta("agent-a", 2, 1)
	return [][]byte{
		full("agent-a", a, 1),
		full("agent-c", c, 1),
		dup,
		dup,
		delta("agent-a", 4, 3),
		delta("nobody", 2, 1),
		full("intruder", "http://intruder:7001", 1),
		[]byte("garbage"),
		full("agent-a", a, 1),
		delta("agent-c", 2, 1),
	}
}

// TestIngestEntryPointsAgree pins IngestHeartbeat and IngestBatch to one
// behaviour over every frame fate and over the fuzzer's seed population.
func TestIngestEntryPointsAgree(t *testing.T) {
	acks, stats := checkIngestEntryPoints(t, ingestScenarioFrames(t))
	want := []HeartbeatAck{
		{Agent: "agent-a", Seq: 1},
		{Agent: "agent-c", Seq: 1},
		{Agent: "agent-a", Seq: 2},
		{Agent: "agent-a", Seq: 2},               // duplicate: stale
		{Agent: "agent-a", Seq: 4, Resync: true}, // gap
		{Agent: "nobody", Seq: 2, Resync: true},
		{Agent: "intruder", Seq: 1, Resync: true},
		{Reject: true},
		{Agent: "agent-a", Seq: 2, Resync: true}, // replay: the watermark
		{Agent: "agent-c", Seq: 2},
	}
	if !reflect.DeepEqual(acks, want) {
		t.Fatalf("acks %+v\nwant %+v", acks, want)
	}
	stats.Bytes = 0
	if want := (StreamStats{Frames: 10, Fulls: 4, Deltas: 5, Stale: 1, Resyncs: 4, Rejects: 1}); stats != want {
		t.Fatalf("stream stats %+v, want %+v", stats, want)
	}
	checkIngestEntryPoints(t, fuzzSeedFrames(t))
}
