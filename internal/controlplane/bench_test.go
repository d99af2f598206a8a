package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
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
// budgetTree is the controller's budget-tree spec ("" = unbudgeted).
func benchController(b *testing.B, urls []string, transport string, client *http.Client, reg *obs.Registry, budgetTree string) (*Controller, func()) {
	b.Helper()
	clock := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	ctl, err := NewController(ControllerConfig{
		AgentURLs:  urls,
		BE:         []string{"graph", "lstm"},
		Solver:     SolverSharded,
		Transport:  transport,
		PodSize:    64,
		DeadAfter:  2,
		Heartbeat:  time.Second,
		Retries:    0,
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

// benchmarkPollRound measures one polling round at steady state: every
// agent answers GET /v1/stats with a full JSON snapshot, the controller
// decodes all n of them, and liveness bookkeeping runs over the results.
func benchmarkPollRound(b *testing.B, n int, reg *obs.Registry) {
	urls, stats := benchFleet(b, n)
	bt := &benchTransport{stats: make(map[string][]byte, n)}
	for i, st := range stats {
		blob, err := json.Marshal(st)
		if err != nil {
			b.Fatal(err)
		}
		bt.stats[urls[i]] = blob
	}
	ctl, tick := benchController(b, urls, TransportPoll, &http.Client{Transport: bt}, reg, "")
	ctx := context.Background()
	ctl.Round(ctx) // discovery + solve + initial pushes, outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
		ctl.Round(ctx)
	}
}

// benchmarkStreamRound measures one streaming round at steady state:
// every agent encodes a delta heartbeat (one float changed), the
// controller ingests the batch into its shards, and the round loop reads
// the swapped snapshots. Encoding is included — it is the agent-side
// cost the transport actually charges per round.
func benchmarkStreamRound(b *testing.B, n int, reg *obs.Registry) {
	urls, stats := benchFleet(b, n)
	ctl, tick := benchController(b, urls, TransportStream, &http.Client{Transport: &benchTransport{}}, reg, "")
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

func BenchmarkControllerRoundPoll100(b *testing.B)   { benchmarkPollRound(b, 100, nil) }
func BenchmarkControllerRoundPoll1k(b *testing.B)    { benchmarkPollRound(b, 1000, nil) }
func BenchmarkControllerRoundPoll10k(b *testing.B)   { benchmarkPollRound(b, 10000, nil) }
func BenchmarkControllerRoundStream100(b *testing.B) { benchmarkStreamRound(b, 100, nil) }
func BenchmarkControllerRoundStream1k(b *testing.B)  { benchmarkStreamRound(b, 1000, nil) }
func BenchmarkControllerRoundStream10k(b *testing.B) { benchmarkStreamRound(b, 10000, nil) }

// The Obs variants run the identical round workload with the metrics
// registry live — the delta against the plain variants is the total
// observability tax on the hot path (CI holds it under 5%).
func BenchmarkControllerRoundPoll1kObs(b *testing.B) {
	benchmarkPollRound(b, 1000, obs.NewRegistry())
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
// reaches.
func benchmarkStreamBudgetRound(b *testing.B, n int) {
	urls, stats := benchFleet(b, n)
	ct := &capTransport{caps: make(map[string]float64, n)}
	ctl, tick := benchController(b, urls, TransportStream, &http.Client{Transport: ct}, nil, benchBudgetTree(stats, 64))
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
}

func BenchmarkControllerRoundStreamBudget1k(b *testing.B) { benchmarkStreamBudgetRound(b, 1000) }
func BenchmarkControllerRoundStreamBudget4k(b *testing.B) { benchmarkStreamBudgetRound(b, 4000) }
