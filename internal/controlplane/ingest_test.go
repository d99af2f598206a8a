package controlplane

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// boundDeltas ingests a full frame from agent-i of ctl for every URL
// (binding each name), then encodes runs consecutive delta batches: batch
// k holds one delta per agent, each applying on the agent's batch k-1
// delta. The encoders are acked as if every frame applied.
func boundDeltas(t *testing.T, ctl *Controller, urls []string, runs int) [][][]byte {
	t.Helper()
	tmpl := streamTestStats(t, "template")
	encs := make([]*HeartbeatEncoder, len(urls))
	stats := make([]StatsResponse, len(urls))
	full := make([][]byte, len(urls))
	for i, u := range urls {
		stats[i] = tmpl
		stats[i].Agent = fmt.Sprintf("agent-%d", i)
		encs[i] = NewHeartbeatEncoder(stats[i].Agent, u)
		frame, err := encs[i].Encode(stats[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		full[i] = frame
	}
	for i, ack := range ctl.IngestBatch(full) {
		if ack.Reject || ack.Resync {
			t.Fatalf("full frame %d ack %+v", i, ack)
		}
		encs[i].Ack(ack)
	}
	batches := make([][][]byte, runs)
	for k := range batches {
		batches[k] = make([][]byte, len(urls))
		for i := range urls {
			stats[i].PowerW = 100 + float64(k%16)*0.5
			stats[i].SimSec++
			frame, err := encs[i].Encode(stats[i], 1)
			if err != nil {
				t.Fatal(err)
			}
			batches[k][i] = frame
			encs[i].Ack(HeartbeatAck{Agent: stats[i].Agent, Seq: uint64(k + 2)})
		}
	}
	return batches
}

// TestIngestHeartbeatDeltaAllocates0 holds one delta from a bound sender
// to zero allocations through IngestHeartbeat: decoded into the
// controller's slot, its name resolved to the bound string, folded
// under the shard lock.
func TestIngestHeartbeatDeltaAllocates0(t *testing.T) {
	ctl, urls, _ := streamTestController(t, 1, 64, nil)
	const runs = 100
	batches := boundDeltas(t, ctl, urls, runs+1) // AllocsPerRun warms up once
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		ack := ctl.IngestHeartbeat(batches[next][0])
		next++
		if ack.Reject || ack.Resync || ack.Agent != "agent-0" || ack.Seq != uint64(next+1) {
			t.Fatalf("delta %d ack %+v", next, ack)
		}
	})
	if allocs != 0 {
		t.Fatalf("IngestHeartbeat of a bound sender's delta: %v allocs, want 0", allocs)
	}
	if v := ctl.stream.view(urls[0]); v.seq != runs+2 {
		t.Fatalf("decoder seq %d after %d deltas, want %d", v.seq, runs+1, runs+2)
	}
}

// TestIngestBatchAllocsFlat holds IngestBatch's allocations per call to
// a constant: a batch of 1,024 applying deltas over 16 shards allocates
// what a batch of 64 over one shard does.
func TestIngestBatchAllocsFlat(t *testing.T) {
	perCall := func(n int) float64 {
		ctl, urls, _ := streamTestController(t, n, 64, nil)
		const runs = 10
		batches := boundDeltas(t, ctl, urls, runs+1)
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			for i, ack := range ctl.IngestBatch(batches[next]) {
				if ack.Reject || ack.Resync {
					t.Fatalf("batch %d frame %d ack %+v", next, i, ack)
				}
			}
			next++
		})
		for _, u := range urls {
			if v := ctl.stream.view(u); v.seq != runs+2 {
				t.Fatalf("%s: decoder seq %d after %d batches, want %d", u, v.seq, runs+1, runs+2)
			}
		}
		return allocs
	}
	small, large := perCall(64), perCall(1024)
	if small != large || large > 8 {
		t.Fatalf("IngestBatch allocs per call: %v at 64 frames, %v at 1,024; want one small constant", small, large)
	}
}

// TestIngestSlotReuseKeepsFullFramesApart decodes two agents' full
// frames, one after the other, through the controller's reused decode
// slot. Each decoder must own its own snapshot: the second frame's JSON
// must not merge into the maps the first frame moved into its decoder.
func TestIngestSlotReuseKeepsFullFramesApart(t *testing.T) {
	ctl, urls, _ := streamTestController(t, 2, 64, nil)
	for i, be := range []string{"graph", "lstm"} {
		st := codecStats()
		st.Agent = fmt.Sprintf("agent-%d", i)
		st.BEOpsBy = map[string]float64{be: float64(i + 1)}
		frame, err := NewHeartbeatEncoder(st.Agent, urls[i]).Encode(st, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ack := ctl.IngestHeartbeat(frame); ack.Reject || ack.Resync {
			t.Fatalf("full frame %d ack %+v", i, ack)
		}
	}
	for i, want := range []map[string]float64{{"graph": 1}, {"lstm": 2}} {
		if got := ctl.stream.view(urls[i]).stats.BEOpsBy; !reflect.DeepEqual(got, want) {
			t.Fatalf("agent-%d BEOpsBy %v, want %v", i, got, want)
		}
	}
}

// TestIngestConcurrentWithRounds runs ingest and rounds at once on a
// budgeted stream fleet: senders, each owning a disjoint set of agents,
// push deltas and full frames through IngestHeartbeat and IngestBatch
// while Round runs in a loop. After a last frame per agent and a
// quiescent round, the controller's Status, every agent's folded report
// and every decoder must equal those of a twin fed the same frames
// serially, apart from the round and rebalance counts. The budget is far
// above the fleet's provisioned power, so every share is its agent's
// provisioned cap however many rounds divided it. Run it under -race.
func TestIngestConcurrentWithRounds(t *testing.T) {
	const n, podSize, senders, rounds = 48, 8, 4, 24
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("agent-%d", i)
	}
	newTwin := func() (*Controller, []string) {
		ctl, urls, _ := streamTestController(t, n, podSize, func(cfg *ControllerConfig) {
			cfg.BE = []string{"graph", "lstm"}
			cfg.BudgetTree = "dc:1e6{" + strings.Join(names, ",") + "}"
			cfg.DeadAfter = 1 << 20 // a sender outpaced by rounds never dies
			cfg.Client = &http.Client{Transport: &ackTransport{}}
		})
		return ctl, urls
	}
	live, urls := newTwin()
	twin, _ := newTwin()
	ctx := context.Background()

	tmpl := streamTestStats(t, "template", "graph", "lstm")
	stats := make([]StatsResponse, n)
	encs := make([]*HeartbeatEncoder, n)
	seed := make([][]byte, n)
	for i := range stats {
		stats[i] = tmpl
		stats[i].Agent = names[i]
		encs[i] = NewHeartbeatEncoder(names[i], urls[i])
		frame, err := encs[i].Encode(stats[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		seed[i] = frame
	}
	for _, ctl := range []*Controller{live, twin} {
		for i, ack := range ctl.IngestBatch(seed) {
			if ack.Reject || ack.Resync {
				t.Fatalf("seed frame %d ack %+v", i, ack)
			}
			encs[i].Ack(ack)
		}
		ctl.Round(ctx)
	}

	// sent[g] is sender g's frames and the acks live gave them, in order.
	type delivery struct {
		frames [][]byte
		acks   []HeartbeatAck
	}
	sent := make([]delivery, senders+1)
	var stop atomic.Bool
	var roundsRun atomic.Int64 // senders pace themselves to it
	roundLoop := make(chan struct{})
	go func() {
		defer close(roundLoop)
		for !stop.Load() {
			live.Round(ctx)
			roundsRun.Add(1)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := &sent[g]
			for r := 1; r <= rounds; r++ {
				for roundsRun.Load() < int64(r) {
					runtime.Gosched()
				}
				var batch [][]byte
				for i := g; i < n; i += senders {
					if (i+r)%7 == 0 {
						encs[i].Resync() // this one goes out as a full frame
					}
					stats[i].PowerW = 100 + float64((i+r)%16)*0.5
					stats[i].SimSec++
					frame, err := encs[i].Encode(stats[i], uint64(r))
					if err != nil {
						t.Error(err)
						return
					}
					batch = append(batch, frame)
				}
				var acks []HeartbeatAck
				if g%2 == 0 {
					for _, frame := range batch {
						acks = append(acks, live.IngestHeartbeat(frame))
					}
				} else {
					acks = live.IngestBatch(batch)
				}
				for k, ack := range acks {
					if ack.Reject || ack.Resync {
						t.Errorf("sender %d round %d frame %d ack %+v", g, r, k, ack)
					}
					encs[g+k*senders].Ack(ack)
				}
				d.frames = append(d.frames, batch...)
				d.acks = append(d.acks, acks...)
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	<-roundLoop
	if t.Failed() {
		t.FailNow()
	}
	// One last delta per agent, so the quiescent round folds every agent
	// on both controllers.
	last := &sent[senders]
	for i := range stats {
		stats[i].SimSec++
		frame, err := encs[i].Encode(stats[i], rounds+1)
		if err != nil {
			t.Fatal(err)
		}
		ack := live.IngestHeartbeat(frame)
		encs[i].Ack(ack)
		last.frames = append(last.frames, frame)
		last.acks = append(last.acks, ack)
	}
	live.Round(ctx)

	for g, d := range sent {
		for k, frame := range d.frames {
			if ack := twin.IngestHeartbeat(frame); ack != d.acks[k] {
				t.Fatalf("sender %d frame %d: twin ack %+v, live ack %+v", g, k, ack, d.acks[k])
			}
		}
	}
	twin.Round(ctx)

	if a, b := live.StreamStats(), twin.StreamStats(); a != b {
		t.Fatalf("stream stats differ:\n live %+v\n twin %+v", a, b)
	}
	for slot, u := range urls {
		if a, b := live.stream.viewAt(slot), twin.stream.viewAt(slot); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: decoders differ:\n live %+v\n twin %+v", u, a, b)
		}
		a, b := live.agents[slot], twin.agents[slot]
		if a.streamSeq != b.streamSeq || !a.lastHeard.Equal(b.lastHeard) || !reflect.DeepEqual(a.last, b.last) {
			t.Fatalf("%s: folded reports differ:\n live seq %d %+v\n twin seq %d %+v", u, a.streamSeq, a.last, b.streamSeq, b.last)
		}
	}
	liveSt, twinSt := live.Status(), twin.Status()
	if liveSt.Budget == nil || twinSt.Budget == nil {
		t.Fatal("budget tree not dividing")
	}
	liveSt.Rounds, liveSt.Budget.Rebalances = twinSt.Rounds, twinSt.Budget.Rebalances
	if !reflect.DeepEqual(liveSt, twinSt) {
		t.Fatalf("status differs:\n live %+v\n twin %+v", liveSt, twinSt)
	}
}

// headerTransport acknowledges every request and records the
// Content-Type each carried.
type headerTransport struct {
	mu    sync.Mutex
	types map[string]int
}

func (h *headerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h.mu.Lock()
	h.types[req.Header.Get("Content-Type")]++
	h.mu.Unlock()
	return (&ackTransport{}).RoundTrip(req)
}

// TestPushesShareOneHeader runs a round of 96 cap pushes and 2
// assignment pushes through the push pool, every request carrying the
// one package-level header. Each must reach the transport as
// Content-Type: application/json, and the shared header must come out
// unchanged. Run it under -race: a write to the shared header by any
// layer is a race between the pool's workers.
func TestPushesShareOneHeader(t *testing.T) {
	const n = 96
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("agent-%d", i)
	}
	tr := &headerTransport{types: make(map[string]int)}
	ctl, urls, _ := streamTestController(t, n, 16, func(cfg *ControllerConfig) {
		cfg.BE = []string{"graph", "lstm"}
		cfg.BudgetTree = "dc:12000{" + strings.Join(names, ",") + "}"
		cfg.Client = &http.Client{Transport: tr}
	})
	tmpl := streamTestStats(t, "template", "graph", "lstm")
	frames := make([][]byte, n)
	for i := range frames {
		st := tmpl
		st.Agent = names[i]
		frame, err := NewHeartbeatEncoder(names[i], urls[i]).Encode(st, 1)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = frame
	}
	ctl.IngestBatch(frames)
	ctl.Round(context.Background())
	if got := tr.types["application/json"]; got != n+2 || len(tr.types) != 1 {
		t.Fatalf("pushes by Content-Type %v, want %d application/json", tr.types, n+2)
	}
	if want := (http.Header{"Content-Type": {"application/json"}}); !reflect.DeepEqual(jsonHeader, want) {
		t.Fatalf("shared push header is now %v, want %v", jsonHeader, want)
	}
}
