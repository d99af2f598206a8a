package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pocolo/internal/obs"
)

// benchTransport answers the controller's HTTP traffic from memory so
// the round benchmarks measure controller cost, not a network stack:
// GET /v1/stats serves a pre-marshaled snapshot per agent, pushes are
// acknowledged and discarded.
type benchTransport struct {
	stats map[string][]byte // base URL → canned GET /v1/stats body
}

func (bt *benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	status, body := http.StatusOK, []byte(nil)
	if req.Method == http.MethodGet && req.URL.Path == RouteStats {
		body = bt.stats["http://"+req.URL.Host]
		if body == nil {
			status = http.StatusNotFound
		}
	}
	return &http.Response{
		StatusCode: status,
		Status:     http.StatusText(status),
		Header:     make(http.Header),
		Body:       io.NopCloser(bytes.NewReader(body)),
		Request:    req,
	}, nil
}

// benchFleet builds n canned agent snapshots (identity, LC envelope,
// fitted models, best-effort candidates) plus their URLs. Snapshots are
// cloned from one template so 10k-agent setup stays cheap enough for
// the CI bench smoke's -benchtime=1x pass.
func benchFleet(b *testing.B, n int) ([]string, []StatsResponse) {
	b.Helper()
	tmpl := streamTestStats(b, "template", "graph", "lstm")
	urls := make([]string, n)
	stats := make([]StatsResponse, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://bench-agent-%d", i)
		st := tmpl
		st.Agent = fmt.Sprintf("agent-%05d", i)
		stats[i] = st
	}
	return urls, stats
}

// benchController stands up a controller over the fleet with a
// deterministic clock. The returned tick advances it one heartbeat.
// reg is the observability registry (nil = unobserved, the baseline);
// budgetTree is the controller's budget-tree spec ("" = unbudgeted); be
// lists the best-effort apps (nil = graph and lstm).
func benchController(b *testing.B, urls []string, transport string, client *http.Client, reg *obs.Registry, budgetTree string, be []string) (*Controller, func()) {
	b.Helper()
	if be == nil {
		be = []string{"graph", "lstm"}
	}
	clock := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	ctl, err := NewController(ControllerConfig{
		AgentURLs:  urls,
		BE:         be,
		Transport:  transport,
		PodSize:    64,
		DeadAfter:  2,
		Heartbeat:  time.Second,
		Client:     client,
		Obs:        reg,
		BudgetTree: budgetTree,
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return clock
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return ctl, func() {
		mu.Lock()
		clock = clock.Add(time.Second)
		mu.Unlock()
	}
}

// delayTransport holds every RPC for rtt before next answers it,
// standing in for a network round trip. The runtime's timers round a
// short sleep up when no goroutine is runnable, so the benchmark reports
// the mean hold it actually served as rtt_us (reportRTT).
type delayTransport struct {
	next         http.RoundTripper
	rtt          time.Duration
	held, served atomic.Int64 // total hold (ns) and RPCs held
}

// withRTT returns next, or with a positive rtt next behind a
// delayTransport, which it also returns.
func withRTT(next http.RoundTripper, rtt time.Duration) (http.RoundTripper, *delayTransport) {
	dt := &delayTransport{next: next, rtt: rtt}
	if rtt <= 0 {
		return next, dt
	}
	return dt, dt
}

// reset forgets the holds served so far, as of the benchmark's timer.
func (dt *delayTransport) reset() {
	dt.held.Store(0)
	dt.served.Store(0)
}

// reportRTT reports the mean hold served since reset, if any.
func (dt *delayTransport) reportRTT(b *testing.B) {
	if n := dt.served.Load(); n > 0 {
		b.ReportMetric(float64(dt.held.Load())/float64(n)/1e3, "rtt_us")
	}
}

func (dt *delayTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	t := time.NewTimer(dt.rtt)
	select {
	case <-t.C:
	case <-req.Context().Done():
		t.Stop()
		return nil, context.Cause(req.Context())
	}
	dt.held.Add(int64(time.Since(start)))
	dt.served.Add(1)
	return dt.next.RoundTrip(req)
}

// benchmarkPollRound measures one polling round at steady state: every
// agent answers GET /v1/stats with a full JSON snapshot, the controller
// decodes all n of them, and liveness bookkeeping runs over the results.
// A positive rtt holds every RPC that long (delayTransport), so the
// round also shows how far its fan-out overlaps network waits.
func benchmarkPollRound(b *testing.B, n int, reg *obs.Registry, rtt time.Duration) {
	urls, stats := benchFleet(b, n)
	bt := &benchTransport{stats: make(map[string][]byte, n)}
	for i, st := range stats {
		blob, err := json.Marshal(st)
		if err != nil {
			b.Fatal(err)
		}
		bt.stats[urls[i]] = blob
	}
	rt, dt := withRTT(bt, rtt)
	ctl, tick := benchController(b, urls, TransportPoll, &http.Client{Transport: rt}, reg, "", nil)
	ctx := context.Background()
	ctl.Round(ctx) // discovery + solve + initial pushes, outside the timer
	dt.reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
		ctl.Round(ctx)
	}
	dt.reportRTT(b)
}

// benchmarkStreamRound measures one streaming round at steady state:
// every agent encodes a delta heartbeat (one float changed), the
// controller ingests the batch into its shards, and the round loop reads
// the swapped snapshots. Encoding is included — it is the agent-side
// cost the transport actually charges per round.
func benchmarkStreamRound(b *testing.B, n int, reg *obs.Registry) {
	urls, stats := benchFleet(b, n)
	ctl, tick := benchController(b, urls, TransportStream, &http.Client{Transport: &benchTransport{}}, reg, "", nil)
	encs := make([]*HeartbeatEncoder, n)
	frames := make([][]byte, n)
	for i := range encs {
		encs[i] = NewHeartbeatEncoder(stats[i].Agent, urls[i])
		frame, err := encs[i].Encode(stats[i], 1)
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = frame
	}
	for i, ack := range ctl.IngestBatch(frames) {
		if ack.Reject || ack.Resync {
			b.Fatalf("full frame %d ack %+v", i, ack)
		}
		encs[i].Ack(ack)
	}
	ctx := context.Background()
	ctl.Round(ctx) // discovery + solve + initial pushes, outside the timer
	seq := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		tick()
		seq++
		for i := range stats {
			stats[i].PowerW = 100 + float64(iter%16)*0.5
			frame, err := encs[i].Encode(stats[i], seq)
			if err != nil {
				b.Fatal(err)
			}
			frames[i] = frame
		}
		for i, ack := range ctl.IngestBatch(frames) {
			if ack.Reject || ack.Resync {
				b.Fatalf("delta ack %d = %+v", i, ack)
			}
			encs[i].Ack(ack)
		}
		ctl.Round(ctx)
	}
}

func BenchmarkControllerRoundPoll100(b *testing.B)   { benchmarkPollRound(b, 100, nil, 0) }
func BenchmarkControllerRoundPoll1k(b *testing.B)    { benchmarkPollRound(b, 1000, nil, 0) }
func BenchmarkControllerRoundPoll10k(b *testing.B)   { benchmarkPollRound(b, 10000, nil, 0) }
func BenchmarkControllerRoundStream100(b *testing.B) { benchmarkStreamRound(b, 100, nil) }
func BenchmarkControllerRoundStream1k(b *testing.B)  { benchmarkStreamRound(b, 1000, nil) }
func BenchmarkControllerRoundStream10k(b *testing.B) { benchmarkStreamRound(b, 10000, nil) }

// The Obs variants run the identical round workload with the metrics
// registry live — the delta against the plain variants is the total
// observability tax on the hot path (CI holds it under 5%).
func BenchmarkControllerRoundPoll1kObs(b *testing.B) {
	benchmarkPollRound(b, 1000, obs.NewRegistry(), 0)
}

// BenchmarkControllerRoundPollRTT1k is the 1k poll round with every RPC
// held for a network round trip: the in-memory rows show the round's
// CPU, these show how much of each RTT the probe fan-out serializes.
func BenchmarkControllerRoundPollRTT1k(b *testing.B) {
	for _, rtt := range []time.Duration{200 * time.Microsecond, time.Millisecond} {
		b.Run(rtt.String(), func(b *testing.B) { benchmarkPollRound(b, 1000, nil, rtt) })
	}
}
func BenchmarkControllerRoundStream1kObs(b *testing.B) {
	benchmarkStreamRound(b, 1000, obs.NewRegistry())
}

// capTransport acknowledges the controller's pushes like benchTransport
// and remembers the last cap pushed to each agent, so the benchmark's
// agents can report the cap they were given, as real agents do.
type capTransport struct {
	benchTransport
	mu   sync.Mutex
	caps map[string]float64 // base URL → last pushed cap
}

func (ct *capTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && req.URL.Path == RouteCap {
		var cr CapRequest
		if err := json.NewDecoder(req.Body).Decode(&cr); err == nil {
			ct.mu.Lock()
			ct.caps["http://"+req.URL.Host] = cr.CapW
			ct.mu.Unlock()
		}
	}
	return ct.benchTransport.RoundTrip(req)
}

// echoTransport is capTransport that also remembers the last assignment
// pushed to each agent, so agents can report the best-effort app they
// were given, as real agents do, and the controller pushes only changes.
type echoTransport struct {
	capTransport
	assigned map[string]string // base URL → last pushed BE
}

func newEchoTransport() *echoTransport {
	return &echoTransport{
		capTransport: capTransport{caps: make(map[string]float64)},
		assigned:     make(map[string]string),
	}
}

func (et *echoTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && req.URL.Path == RouteAssign {
		var ar AssignRequest
		if err := json.NewDecoder(req.Body).Decode(&ar); err == nil {
			et.mu.Lock()
			et.assigned["http://"+req.URL.Host] = ar.BE
			et.mu.Unlock()
		}
	}
	return et.capTransport.RoundTrip(req)
}

// benchBudgetTree bounds each pod of podSize agents, and the root, at 90%
// of their provisioned power: the fleet benchmark's per-pod tree.
func benchBudgetTree(stats []StatsResponse, podSize int) string {
	var b strings.Builder
	total := 0.0
	for _, st := range stats {
		total += st.ProvisionedPowerW
	}
	fmt.Fprintf(&b, "dc:%.0f{", 0.9*total)
	for lo := 0; lo < len(stats); lo += podSize {
		hi := min(lo+podSize, len(stats))
		podW := 0.0
		names := make([]string, 0, hi-lo)
		for _, st := range stats[lo:hi] {
			podW += st.ProvisionedPowerW
			names = append(names, st.Agent)
		}
		if lo > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "pod-%d:%.0f{%s}", lo/podSize, 0.9*podW, strings.Join(names, ","))
	}
	b.WriteByte('}')
	return b.String()
}

// benchmarkStreamBudgetRound is benchmarkStreamRound under a live
// per-pod budget tree: the fleet's drifting draw moves every agent's
// share each round, so the round divides the budget and pushes and
// records one cap per agent. Each agent reports the cap it was last
// pushed. This is the push path the unbudgeted stream round never
// reaches. A positive rtt holds every push that long (delayTransport).
func benchmarkStreamBudgetRound(b *testing.B, n int, rtt time.Duration) {
	urls, stats := benchFleet(b, n)
	ct := &capTransport{caps: make(map[string]float64, n)}
	rt, dt := withRTT(ct, rtt)
	ctl, tick := benchController(b, urls, TransportStream, &http.Client{Transport: rt}, nil, benchBudgetTree(stats, 64), nil)
	encs := make([]*HeartbeatEncoder, n)
	for i := range encs {
		encs[i] = NewHeartbeatEncoder(stats[i].Agent, urls[i])
	}
	frames := make([][]byte, n)
	ingest := func(seq uint64) {
		ct.mu.Lock()
		for i := range stats {
			if capW, ok := ct.caps[urls[i]]; ok {
				stats[i].CapW = capW
			}
		}
		ct.mu.Unlock()
		for i := range stats {
			frame, err := encs[i].Encode(stats[i], seq)
			if err != nil {
				b.Fatal(err)
			}
			frames[i] = frame
		}
		for i, ack := range ctl.IngestBatch(frames) {
			if ack.Reject || ack.Resync {
				b.Fatalf("frame %d ack %+v", i, ack)
			}
			encs[i].Ack(ack)
		}
	}
	ctx := context.Background()
	ingest(1)
	ctl.Round(ctx) // discovery + solve + first division, outside the timer
	if st := ctl.Status(); st.Budget == nil || st.Budget.Rebalances != 1 {
		b.Fatalf("budget tree not dividing: %+v", st.Budget)
	}
	seq := uint64(1)
	dt.reset()
	b.ReportAllocs()
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		tick()
		seq++
		for i := range stats {
			// Staggered so relative demand, and with it every share,
			// moves each round.
			stats[i].PowerW = 100 + float64((i+iter)%16)*0.5
		}
		ingest(seq)
		ctl.Round(ctx)
	}
	dt.reportRTT(b)
}

func BenchmarkControllerRoundStreamBudget1k(b *testing.B) { benchmarkStreamBudgetRound(b, 1000, 0) }
func BenchmarkControllerRoundStreamBudget4k(b *testing.B) { benchmarkStreamBudgetRound(b, 4000, 0) }

// BenchmarkControllerRoundStreamBudgetRTT1k is the budgeted 1k stream
// round with every push held for a network round trip: the in-memory
// rows show the round's CPU, these show how much of each RTT the push
// fan-out serializes.
func BenchmarkControllerRoundStreamBudgetRTT1k(b *testing.B) {
	for _, rtt := range []time.Duration{200 * time.Microsecond, time.Millisecond} {
		b.Run(rtt.String(), func(b *testing.B) { benchmarkStreamBudgetRound(b, 1000, rtt) })
	}
}

// benchmarkStreamChurnRound is the budgeted stream round with the churn
// that makes the controller re-solve: replicas best-effort replicas, and
// every other round one agent stops heartbeating and comes back four
// rounds later with a full frame. With DeadAfter 2 nearly every round
// then either declares an agent dead or sees one rejoin, and re-solves
// the placement. Agents report the BE and cap last pushed to them, so
// only changed assignments are pushed. It reports the placement engine's
// rebuilds and the unplaced apps per round.
func benchmarkStreamChurnRound(b *testing.B, n, replicas int) {
	urls, stats := benchFleet(b, n)
	et := newEchoTransport()
	bes := make([]string, replicas)
	for i := range bes {
		bes[i] = fmt.Sprintf("%s#%d", []string{"graph", "lstm"}[i%2], i/2)
	}
	ctl, tick := benchController(b, urls, TransportStream, &http.Client{Transport: et}, nil, benchBudgetTree(stats, 64), bes)
	encs := make([]*HeartbeatEncoder, n)
	for i := range encs {
		encs[i] = NewHeartbeatEncoder(stats[i].Agent, urls[i])
	}
	downUntil := make([]int, n) // round a silent agent returns; 0 = running
	frames := make([][]byte, 0, n)
	from := make([]int, 0, n)
	ingest := func(seq uint64) {
		et.mu.Lock()
		for i := range stats {
			stats[i].AssignedBE = et.assigned[urls[i]]
			if capW, ok := et.caps[urls[i]]; ok {
				stats[i].CapW = capW
			}
		}
		et.mu.Unlock()
		frames, from = frames[:0], from[:0]
		for i := range stats {
			if downUntil[i] > 0 {
				continue
			}
			frame, err := encs[i].Encode(stats[i], seq)
			if err != nil {
				b.Fatal(err)
			}
			frames = append(frames, frame)
			from = append(from, i)
		}
		for k, ack := range ctl.IngestBatch(frames) {
			if ack.Reject || ack.Resync {
				b.Fatalf("agent %d ack %+v", from[k], ack)
			}
			encs[from[k]].Ack(ack)
		}
	}
	ctx := context.Background()
	ingest(1)
	ctl.Round(ctx) // discovery + solve + first pushes, outside the timer
	if st := ctl.Status(); len(st.Placement) != len(bes) {
		b.Fatalf("placed %d of %d replicas", len(st.Placement), len(bes))
	}
	seq := uint64(1)
	victim := 0
	engine, rebuilds, unplaced := ctl.engine, 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for iter := 1; iter <= b.N; iter++ {
		tick()
		seq++
		for i := range downUntil {
			if downUntil[i] == iter {
				downUntil[i] = 0
				encs[i].Resync() // a restarted agent sends a full frame
			}
		}
		if iter%2 == 0 {
			for downUntil[victim] > 0 {
				victim = (victim + 1) % n
			}
			downUntil[victim] = iter + 4
			victim = (victim + 389) % n // a stride coprime to n visits every pod
		}
		for i := range stats {
			stats[i].PowerW = 100 + float64((i+iter)%16)*0.5
		}
		ingest(seq)
		ctl.Round(ctx)
		ctl.mu.Lock()
		if ctl.engine != engine {
			engine = ctl.engine
			rebuilds++
		}
		unplaced += len(ctl.unplaced)
		ctl.mu.Unlock()
	}
	b.ReportMetric(float64(rebuilds)/float64(b.N), "rebuilds/op")
	b.ReportMetric(float64(unplaced)/float64(b.N), "unplaced/op")
}

func BenchmarkControllerRoundStreamChurn1k(b *testing.B) { benchmarkStreamChurnRound(b, 1000, 500) }

// benchmarkResolve times the re-solve alone: an unbudgeted stream
// controller over n agents and n/2 best-effort replicas (resolveRig),
// where each op takes one agent down or brings the last one back and
// re-solves, under the controller lock as a round does. Victims stride
// across the fleet and skip slot 0, the agent the rows' models come
// from. Nothing is ingested or pushed, so a re-solve that visits the
// whole fleet shows in ns/op and allocs/op at 4k against 1k.
func benchmarkResolve(b *testing.B, n int) {
	ctl := resolveRig(b, n)
	victim := 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if crashOrRejoin(ctl, victim) {
			victim = 1 + (victim+388)%(n-1)
		}
	}
}

func BenchmarkControllerResolve1k(b *testing.B) { benchmarkResolve(b, 1000) }
func BenchmarkControllerResolve4k(b *testing.B) { benchmarkResolve(b, 4000) }

// ingestRig is a warm stream controller over n agents and their
// encoders: encode(iter) encodes one report per agent into frames, and
// ack feeds a batch's acks back to the encoders, failing on any reject or
// resync.
type ingestRig struct {
	ctl    *Controller
	frames [][]byte
	encode func(iter int)
	ack    func(acks []HeartbeatAck)
}

// newIngestRig builds the rig and binds every agent with a full frame, so
// the next encode yields deltas that all apply.
func newIngestRig(b *testing.B, n int) *ingestRig {
	urls, stats := benchFleet(b, n)
	ctl, _ := benchController(b, urls, TransportStream, &http.Client{Transport: &benchTransport{}}, nil, "", nil)
	encs := make([]*HeartbeatEncoder, n)
	for i := range encs {
		encs[i] = NewHeartbeatEncoder(stats[i].Agent, urls[i])
	}
	r := &ingestRig{ctl: ctl, frames: make([][]byte, n)}
	r.encode = func(iter int) {
		for i := range stats {
			stats[i].PowerW = 100 + float64((i+iter)%16)*0.5
			frame, err := encs[i].Encode(stats[i], 1)
			if err != nil {
				b.Fatal(err)
			}
			r.frames[i] = frame
		}
	}
	r.ack = func(acks []HeartbeatAck) {
		for i, a := range acks {
			if a.Reject || a.Resync {
				b.Fatalf("frame %d ack %+v", i, a)
			}
			encs[i].Ack(a)
		}
	}
	r.encode(0) // full frames
	r.ack(ctl.IngestBatch(r.frames))
	return r
}

// benchmarkIngestBatch measures one IngestBatch of n deltas, one per
// agent, each of which applies, over warm shards: every agent is bound
// by a full frame and the batch buffer is built. The deltas are encoded,
// and the previous batch's acks fed back, with the timer stopped.
func benchmarkIngestBatch(b *testing.B, n int) {
	r := newIngestRig(b, n)
	r.encode(1) // the first deltas, which build the batch buffer
	acks := r.ctl.IngestBatch(r.frames)
	b.ReportAllocs()
	b.ResetTimer()
	for iter := 2; iter < b.N+2; iter++ {
		b.StopTimer()
		r.ack(acks)
		r.encode(iter)
		b.StartTimer()
		acks = r.ctl.IngestBatch(r.frames)
	}
	b.StopTimer()
	r.ack(acks)
}

func BenchmarkIngestBatch1k(b *testing.B) { benchmarkIngestBatch(b, 1000) }
func BenchmarkIngestBatch4k(b *testing.B) { benchmarkIngestBatch(b, 4000) }

// BenchmarkIngestPhases splits BenchmarkIngestBatch{1k,4k} into
// IngestBatch's three phases over the same frames: decode (the worker
// pool over runs of frames), route (serial), and apply (the worker pool
// over shards, one lock each). Every iteration runs all three on a fresh
// batch of deltas and times only the named one, so the phases of one
// size add up to its IngestBatch apart from taking and returning the
// batch buffer.
func BenchmarkIngestPhases(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		for _, phase := range []string{"decode", "route", "apply"} {
			b.Run(fmt.Sprintf("%dk/%s", n/1000, phase), func(b *testing.B) {
				benchmarkIngestPhase(b, n, phase)
			})
		}
	}
}

func benchmarkIngestPhase(b *testing.B, n int, phase string) {
	r := newIngestRig(b, n)
	r.encode(1)
	r.ack(r.ctl.IngestBatch(r.frames)) // builds the batch buffer
	s := r.ctl.stream
	buf := s.takeBuf(n)
	defer s.putBuf(buf, n)
	acks := make([]HeartbeatAck, n)
	timed := func(name string, f func()) {
		if name == phase {
			b.StartTimer()
			defer b.StopTimer()
		}
		f()
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for iter := 2; iter < b.N+2; iter++ {
		r.encode(iter)
		clear(acks)
		timed("decode", func() { r.ctl.decodeBatch(buf, r.frames, acks) })
		timed("route", func() { s.routeBatch(buf, n, acks) })
		now := r.ctl.now()
		timed("apply", func() { s.applyBatch(buf, now, acks) })
		r.ack(acks)
	}
}

// BenchmarkControllerRoundStreamOverflow1k is the churn round with one
// replica per agent, so any silent agent leaves the apps outnumbering
// the live agents: the re-solve trims the rows to the live agents'
// count and rebuilds the engine over them.
func BenchmarkControllerRoundStreamOverflow1k(b *testing.B) {
	benchmarkStreamChurnRound(b, 1000, 1000)
}

// discardResponse is an http.ResponseWriter that drops the body, so the
// scrape benchmark measures building and rendering the exposition, not
// growing a buffer to hold it.
type discardResponse struct{ header http.Header }

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// BenchmarkControllerMetrics1k measures one /metrics scrape of a stream
// controller over 1k agents with a per-pod budget tree and a live
// registry: per-agent liveness, budget shares and headroom, and the
// registry's histograms, all rendered by one writer.
func BenchmarkControllerMetrics1k(b *testing.B) {
	const n = 1000
	urls, stats := benchFleet(b, n)
	ct := &capTransport{caps: make(map[string]float64, n)}
	ctl, _ := benchController(b, urls, TransportStream, &http.Client{Transport: ct}, obs.NewRegistry(), benchBudgetTree(stats, 64), nil)
	frames := make([][]byte, n)
	for i := range stats {
		frame, err := NewHeartbeatEncoder(stats[i].Agent, urls[i]).Encode(stats[i], 1)
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = frame
	}
	for i, ack := range ctl.IngestBatch(frames) {
		if ack.Reject || ack.Resync {
			b.Fatalf("frame %d ack %+v", i, ack)
		}
	}
	ctl.Round(context.Background())
	if st := ctl.Status(); st.Budget == nil || len(st.Budget.Shares) != n {
		b.Fatalf("budget tree not dividing over %d agents: %+v", n, st.Budget)
	}
	req, err := http.NewRequest(http.MethodGet, RouteMetrics, nil)
	if err != nil {
		b.Fatal(err)
	}
	w := &discardResponse{header: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.MetricsHandler(w, req)
	}
}

// resettableBody is a request body a benchmark rewinds onto the next
// payload instead of allocating a reader per request.
type resettableBody struct{ bytes.Reader }

func (*resettableBody) Close() error { return nil }

// BenchmarkAgentCapPush is the agent's side of one cap push: a canonical
// POST /v1/cap body, as the controller's push marshals it, through Agent.ServeHTTP to
// its ack. The request and a no-op ResponseWriter are reused, and the
// bodies rotate over 16 caps, so every push changes the installed cap.
func BenchmarkAgentCapPush(b *testing.B) {
	a := newTestAgent(b, "agent-00042", "xapian", "graph")
	idle := a.machine.IdlePowerW
	bodies := make([][]byte, 16)
	for i := range bodies {
		body, err := json.Marshal(CapRequest{CapW: idle + 20 + 1.25*float64(i)})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	body := &resettableBody{}
	req, err := http.NewRequest(http.MethodPost, RouteCap, nil)
	if err != nil {
		b.Fatal(err)
	}
	req.Body = body
	body.Reset(bodies[1])
	rec := httptest.NewRecorder()
	a.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("cap push = %d %s", rec.Code, rec.Body)
	}
	w := &discardResponse{header: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(bodies[i%len(bodies)])
		a.ServeHTTP(w, req)
	}
}

// benchResyncFrame is the full heartbeat frame the resync benchmarks
// encode and decode: a streamTestStats snapshot (identity, LC envelope,
// fitted models, two BE candidates), as every agent sends after
// discovery, a controller restart or a partition.
func benchResyncFrame(b *testing.B) *Heartbeat {
	b.Helper()
	return &Heartbeat{
		Agent: "agent-00042", URL: "http://bench-agent-42", Seq: 1, Epoch: 1,
		Full: true, Stats: streamTestStats(b, "agent-00042", "graph", "lstm"),
	}
}

// Package-level sinks keep the compiler from eliding the measured calls.
var (
	benchFrameSink     []byte
	benchHeartbeatSink *Heartbeat
)

// BenchmarkHeartbeatFullEncode is the sender's side of one resync: one
// full frame, snapshot JSON through DEFLATE into the wire layout.
func BenchmarkHeartbeatFullEncode(b *testing.B) {
	hb := benchResyncFrame(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := EncodeHeartbeat(hb)
		if err != nil {
			b.Fatal(err)
		}
		benchFrameSink = frame
	}
}

// BenchmarkHeartbeatFullDecode is the controller's side of one resync:
// one full frame through the strict inflate and the snapshot JSON.
func BenchmarkHeartbeatFullDecode(b *testing.B) {
	frame, err := EncodeHeartbeat(benchResyncFrame(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hb, err := DecodeHeartbeat(frame)
		if err != nil {
			b.Fatal(err)
		}
		benchHeartbeatSink = hb
	}
}
