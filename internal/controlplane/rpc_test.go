package controlplane

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// laneRig builds a controller over n agents whose every RPC goes to tr,
// each bounded by timeout, and one cap push per agent, each cap distinct.
func laneRig(t testing.TB, n int, timeout time.Duration, tr http.RoundTripper) (*Controller, []pendingPush) {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://lane-agent-%d", i)
	}
	ctl, err := NewController(ControllerConfig{
		AgentURLs: urls,
		BE:        []string{"graph", "lstm#1", "a<b&c>"},
		Timeout:   timeout,
		Client:    &http.Client{Transport: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	pushes := make([]pendingPush, n)
	for i, a := range ctl.agents {
		pushes[i] = pendingPush{kind: pushCap, agent: a, url: a.url, name: a.name, capW: 100 + float64(i)*0.37}
	}
	return ctl, pushes
}

// emptyOK is the one reply barrierTransport gives every RPC. The
// controller only reads a reply, and http.NoBody reads as empty from any
// number of goroutines.
var emptyOK = &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Body: http.NoBody}

// barrierTransport acknowledges every RPC with emptyOK and allocates
// nothing: it closes each request body unread. The first hold RPCs of a
// fan-out wait until hold are in flight, or fail at their deadline, so
// every lane makes an RPC however its goroutine is scheduled.
type barrierTransport struct {
	hold    int64
	started atomic.Int64
}

func (b *barrierTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	if b.started.Add(1) <= b.hold {
		for b.started.Load() < b.hold {
			if err := context.Cause(req.Context()); err != nil {
				return nil, err
			}
			runtime.Gosched()
		}
	}
	return emptyOK, nil
}

// TestPushAllocsFlat: through a RoundTripper that allocates nothing, the
// push fan-out allocates as many objects for 1,024 cap pushes as for 64.
// Its lanes own each RPC's deadline, request, body and drain, so what it
// allocates is per worker, and both sizes start maxRPCWorkers workers and
// the one spare their barrier-held RPCs call for.
func TestPushAllocsFlat(t *testing.T) {
	perPushAll := func(n int) float64 {
		tr := &barrierTransport{hold: maxRPCWorkers}
		ctl, pushes := laneRig(t, n, time.Minute, tr)
		ctx := context.Background()
		return testing.AllocsPerRun(20, func() {
			tr.started.Store(0)
			ctl.pushAll(ctx, pushes)
			for i, p := range pushes {
				if p.err != nil {
					t.Fatalf("push %d of %d not acknowledged: %v", i, n, p.err)
				}
			}
		})
	}
	small, large := perPushAll(64), perPushAll(1024)
	t.Logf("pushAll allocs: %v for 64 cap pushes, %v for 1,024", small, large)
	if large > small+2 {
		t.Fatalf("pushAll allocs: %v for 64 cap pushes, %v for 1,024; want no term that grows with the pushes", small, large)
	}
}

// keptLanes returns the set of lanes the controller keeps for its next
// fan-out.
func keptLanes(ctl *Controller) map[*rpcLane]bool {
	ctl.laneMu.Lock()
	defer ctl.laneMu.Unlock()
	kept := make(map[*rpcLane]bool, len(ctl.lanes))
	for _, l := range ctl.lanes {
		kept[l] = true
	}
	return kept
}

// TestPushReusesLanes: the controller keeps its lanes across fan-outs. A
// pushAll of 64 pushes through barrierTransport, whose 64 RPCs wait for
// one another so that the fan-out grows a worker per push, builds 64
// lanes; a second pushAll runs on those and builds none.
func TestPushReusesLanes(t *testing.T) {
	const n = 64
	tr := &barrierTransport{hold: n}
	ctl, pushes := laneRig(t, n, time.Minute, tr)
	ctx := context.Background()
	var kept [2]map[*rpcLane]bool
	for call := range kept {
		tr.started.Store(0)
		ctl.pushAll(ctx, pushes)
		for i, p := range pushes {
			if p.err != nil {
				t.Fatalf("pushAll %d: push %d not acknowledged: %v", call+1, i, p.err)
			}
		}
		kept[call] = keptLanes(ctl)
	}
	if len(kept[0]) != n {
		t.Fatalf("the first pushAll kept %d lanes, want %d", len(kept[0]), n)
	}
	built := 0
	for l := range kept[1] {
		if !kept[0][l] {
			built++
		}
	}
	if built > 0 || len(kept[1]) != len(kept[0]) {
		t.Fatalf("the second pushAll built %d lanes and left %d kept, want none built and %d kept", built, len(kept[1]), len(kept[0]))
	}
}

// stallTransport is every stall test's RoundTripper. A request to an
// agent that stall names, by its base URL (scheme://host), waits until
// its context ends and fails with the context's cause, as net/http's
// Transport does, and signals entered, when set, as the stall starts.
// Every other request goes to inner, the test's own responder.
type stallTransport struct {
	stall   func(base string) bool
	inner   http.RoundTripper
	entered chan struct{}
}

func (s *stallTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !s.stall(req.URL.Scheme + "://" + req.URL.Host) {
		return s.inner.RoundTrip(req)
	}
	if req.Body != nil {
		req.Body.Close()
	}
	select {
	case s.entered <- struct{}{}: // a nil entered is never ready
	default:
	}
	<-req.Context().Done()
	return nil, context.Cause(req.Context())
}

// agentSet is a set of agents by base URL; its has is a stall predicate.
type agentSet map[string]bool

func (s agentSet) has(base string) bool { return s[base] }

// laneStall stalls the lane agents slow names and acknowledges every
// other request (liveCtxTransport).
func laneStall(slow agentSet) *stallTransport {
	return &stallTransport{stall: slow.has, inner: liveCtxTransport{}}
}

// runFanOut runs pushes on a fan-out of the given number of targets,
// target w making pushes w, w+targets, w+2·targets, … in turn on its
// worker's lane, and returns each push's error and duration, failing the
// test if the fan-out does not return within limit.
func runFanOut(t *testing.T, ctx context.Context, ctl *Controller, pushes []pendingPush, targets int, limit time.Duration) ([]error, []time.Duration) {
	t.Helper()
	errs := make([]error, len(pushes))
	took := make([]time.Duration, len(pushes))
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctl.fanOut(ctx, targets, func(l *rpcLane, w int) {
			for i := w; i < len(pushes); i += targets {
				start := time.Now()
				errs[i] = ctl.push(l, &pushes[i])
				took[i] = time.Since(start)
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("fan-out of %d pushes did not return within %v", len(pushes), limit)
	}
	return errs, took
}

// raiseTo raises peak to n if n is higher.
func raiseTo(peak *atomic.Int64, n int64) {
	for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
	}
}

// statsOK is a 200 reply carrying a small stats body, which a probe
// decodes on the fast path.
func statsOK(req *http.Request) *http.Response {
	return &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Body: io.NopCloser(strings.NewReader(`{"agent":"a"}`)), Request: req}
}

// peakGoroutinesTransport answers every request at once (statsOK) and
// records the most goroutines it saw.
type peakGoroutinesTransport struct{ peak atomic.Int64 }

func (g *peakGoroutinesTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	raiseTo(&g.peak, int64(runtime.NumGoroutine()))
	return statsOK(req), nil
}

// probeOrPush runs one fan-out over ctl's agents, of kind "probe"
// (pollProbe) or "push" (pushAll of pushes), and returns each RPC's
// error.
func probeOrPush(ctl *Controller, pushes []pendingPush, kind string) []error {
	var errs []error
	if kind == "push" {
		ctl.pushAll(context.Background(), pushes)
		for _, p := range pushes {
			errs = append(errs, p.err)
		}
		return errs
	}
	for _, r := range ctl.pollProbe(context.Background(), time.Now()) {
		errs = append(errs, r.err)
	}
	return errs
}

// TestProbeFanOutStaysNarrow: a 1,000-agent probe or push fan-out whose
// RPCs return at once runs on at most maxRPCWorkers+1 workers, the
// calling goroutine among them: its workers never block, so it never
// needs a second spare, where a worker per target would start 1,000. The
// collector is held off during the fan-out: a GC assist parks an
// allocating worker, which the fan-out cannot tell from a blocked RPC.
func TestProbeFanOutStaysNarrow(t *testing.T) {
	const n = 1000
	for _, kind := range []string{"probe", "push"} {
		t.Run(kind, func(t *testing.T) {
			tr := &peakGoroutinesTransport{}
			ctl, pushes := laneRig(t, n, time.Minute, tr)
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			base := int64(runtime.NumGoroutine())
			errs := probeOrPush(ctl, pushes, kind)
			if len(errs) != n {
				t.Fatalf("%d RPCs, want %d", len(errs), n)
			}
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%s %d: %v", kind, i, err)
				}
			}
			if extra := tr.peak.Load() - base; extra > maxRPCWorkers {
				t.Fatalf("%s fan-out of %d prompt RPCs ran %d goroutines besides the caller, want at most %d", kind, n, extra, maxRPCWorkers)
			}
		})
	}
}

// inFlightTransport answers every request with statsOK and records the
// most RPCs it saw in flight. Each RPC waits until hold have arrived, or
// fails at its own deadline.
type inFlightTransport struct {
	hold     int64
	released chan struct{}
	entered  atomic.Int64
	in, peak atomic.Int64
}

func (f *inFlightTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	raiseTo(&f.peak, f.in.Add(1))
	defer f.in.Add(-1)
	if f.entered.Add(1) == f.hold {
		close(f.released)
	}
	select {
	case <-f.released:
	case <-req.Context().Done():
		return nil, context.Cause(req.Context())
	}
	return statsOK(req), nil
}

// TestProbeFanOutGrowsPastBlockedRPCs: a fan-out of 200 probes, or of
// 120 pushes, whose RPCs each wait until all are in flight completes:
// each blocked RPC gets a worker of its own, so the RPCs wait together,
// not ⌈n/maxRPCWorkers⌉ timeouts in turn.
func TestProbeFanOutGrowsPastBlockedRPCs(t *testing.T) {
	for _, tc := range []struct {
		kind string
		n    int
	}{{"probe", 200}, {"push", 120}} {
		t.Run(tc.kind, func(t *testing.T) {
			tr := &inFlightTransport{hold: int64(tc.n), released: make(chan struct{})}
			ctl, pushes := laneRig(t, tc.n, 10*time.Second, tr)
			start := time.Now()
			for i, err := range probeOrPush(ctl, pushes, tc.kind) {
				if err != nil {
					t.Fatalf("%s %d of %d after %v: %v", tc.kind, i, tc.n, time.Since(start), err)
				}
			}
			if got := tr.peak.Load(); got != int64(tc.n) {
				t.Fatalf("%d %ss in flight at most, want %d", got, tc.kind, tc.n)
			}
		})
	}
}

// TestLaneDeadlinePerRPC: on a one-target fan-out, which makes every push
// on one lane, every RPC is bounded by the request timeout from its own
// start. A push to an agent that stalls until its context ends fails
// after about Timeout with a deadline error that reads as one; the lane's
// next pushes succeed, which a lane that kept its fired context would
// fail at once; and a later stall is again bounded from its own start.
func TestLaneDeadlinePerRPC(t *testing.T) {
	const timeout = 100 * time.Millisecond
	slow := agentSet{"http://lane-agent-0": true, "http://lane-agent-3": true}
	ctl, pushes := laneRig(t, 6, timeout, laneStall(slow))
	errs, took := runFanOut(t, context.Background(), ctl, pushes, 1, time.Minute)
	for i, err := range errs {
		if !slow[pushes[i].url] {
			if err != nil {
				t.Errorf("push %d to a prompt agent after a timed-out one: %v", i, err)
			}
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(fmt.Sprint(err), "context deadline exceeded") {
			t.Errorf("push %d to a stalled agent: err %v, want a context deadline exceeded", i, err)
		}
		if took[i] < timeout || took[i] > timeout+2*time.Second {
			t.Errorf("push %d to a stalled agent took %v, want about the %v timeout", i, took[i], timeout)
		}
	}
}

// TestLaneDeadlineFromOwnStart: a lane arms its deadline's timer once per
// fan-out, not per RPC, and still bounds each RPC from its own start. On
// a lane kept from an earlier fan-out, an RPC that starts 0.9 × Timeout
// after the lane's first RPC of the fan-out, and stalls, is cancelled
// about Timeout after its own start, not at the first RPC's deadline. So
// is one that stalls after the lane sat idle for longer than Timeout,
// when the timer has found no RPC in flight and stopped.
func TestLaneDeadlineFromOwnStart(t *testing.T) {
	const timeout = 200 * time.Millisecond
	slow := agentSet{"http://lane-agent-1": true, "http://lane-agent-3": true}
	ctl, pushes := laneRig(t, 4, timeout, laneStall(slow))
	ctx := context.Background()
	var lanes [2]*rpcLane
	ctl.fanOut(ctx, 1, func(l *rpcLane, _ int) {
		lanes[0] = l
		if err := ctl.push(l, &pushes[0]); err != nil {
			t.Errorf("first fan-out's push: %v", err)
		}
	})
	// One target makes the pushes in order: 0 and 2 answer at once, 1
	// starts 0.9 × Timeout after 0, and 3 after an idle 1.5 × Timeout.
	var first time.Time
	var took [4]time.Duration
	var errs [4]error
	ctl.fanOut(ctx, 1, func(l *rpcLane, _ int) {
		lanes[1] = l
		for i := range pushes {
			switch i {
			case 0:
				first = time.Now()
			case 1:
				time.Sleep(time.Until(first.Add(timeout * 9 / 10)))
			case 3:
				time.Sleep(timeout * 3 / 2)
			}
			start := time.Now()
			errs[i] = ctl.push(l, &pushes[i])
			took[i] = time.Since(start)
		}
	})
	if lanes[1] != lanes[0] {
		t.Fatal("the second fan-out did not reuse the first one's lane")
	}
	for i, err := range errs {
		if !slow[pushes[i].url] {
			if err != nil {
				t.Errorf("push %d to a prompt agent: %v", i, err)
			}
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("push %d to a stalled agent: err %v, want a context deadline exceeded", i, err)
		}
		if took[i] < timeout || took[i] > timeout+timeout/2 {
			t.Errorf("push %d to a stalled agent took %v; want about the %v timeout from its own start", i, took[i], timeout)
		}
	}
}

// TestFanOutStealsStalledRun: every target in the first worker's run
// stalls until its deadline. The other workers steal the rest of that
// run while its worker is blocked, so each stall holds a worker of its
// own and the fan-out ends within one timeout, where a worker that kept
// its run to itself would serve the stalls one after another. A fan-out's
// width is its target count, n: it grows to at most one worker a target.
func TestFanOutStealsStalledRun(t *testing.T) {
	const n, timeout = 10 * maxRPCWorkers, 200 * time.Millisecond
	const run = n / maxRPCWorkers // the first worker's run is targets [0, run)
	t.Run(fmt.Sprintf("width-%d", n), func(t *testing.T) {
		slow := make(agentSet, run)
		for i := 0; i < run; i++ {
			slow[fmt.Sprintf("http://lane-agent-%d", i)] = true
		}
		ctl, pushes := laneRig(t, n, timeout, laneStall(slow))
		start := time.Now()
		errs, _ := runFanOut(t, context.Background(), ctl, pushes, n, time.Minute)
		elapsed := time.Since(start)
		for i, err := range errs {
			if stalled := i < run; stalled != errors.Is(err, context.DeadlineExceeded) || !stalled && err != nil {
				t.Errorf("push %d (stalled %v): %v", i, stalled, err)
			}
		}
		if elapsed > timeout+timeout/2 {
			t.Fatalf("fan-out with the first worker's %d targets stalled took %v, over one %v timeout", run, elapsed, timeout)
		}
	})
}

// TestLaneCancel: cancelling the round's context fails the RPCs in flight
// and those still queued on the lanes with context.Canceled, not a
// deadline, and the fan-out returns. Two targets make four pushes each.
func TestLaneCancel(t *testing.T) {
	const n, targets = 8, 2
	slow := make(agentSet, n)
	for i := 0; i < n; i++ {
		slow[fmt.Sprintf("http://lane-agent-%d", i)] = true
	}
	tr := laneStall(slow)
	tr.entered = make(chan struct{}, n)
	ctl, pushes := laneRig(t, n, time.Minute, tr)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for i := 0; i < targets; i++ {
			<-tr.entered
		}
		cancel()
	}()
	errs, _ := runFanOut(t, ctx, ctl, pushes, targets, 10*time.Second)
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("push %d after the round's cancellation: err %v, want context.Canceled", i, err)
		}
	}
}

// liveCtxTransport acknowledges every request whose context is live and
// fails one whose context has ended, with the context's cause.
type liveCtxTransport struct{}

func (liveCtxTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	if err := context.Cause(req.Context()); err != nil {
		return nil, err
	}
	return emptyOK, nil
}

// TestLaneContextAcrossFanOuts: a fan-out may run on a context that ends
// after it, as a trace fan-out runs on an HTTP request's, and the next
// fan-out, on the round's context, reuses its lanes. 256 pushes run on a
// context that is then cancelled; every one of 256 more on
// context.Background() must be acknowledged by a transport that fails a
// request whose context has ended, so no kept lane may carry the ended
// context into the second fan-out.
func TestLaneContextAcrossFanOuts(t *testing.T) {
	const n = 256
	ctl, pushes := laneRig(t, n, time.Minute, liveCtxTransport{})
	ctx, cancel := context.WithCancel(context.Background())
	ctl.pushAll(ctx, pushes)
	cancel()
	for i, p := range pushes {
		if p.err != nil {
			t.Fatalf("push %d before the cancellation: %v", i, p.err)
		}
	}
	if len(keptLanes(ctl)) == 0 {
		t.Fatal("the first fan-out kept no lanes")
	}
	ctl.pushAll(context.Background(), pushes)
	for i, p := range pushes {
		if p.err != nil {
			t.Fatalf("push %d on a fresh context after the first fan-out's ended: %v", i, p.err)
		}
	}
}

// lateReaderTransport answers every request at once and reads and closes
// its body later, on a goroutine of its own, as net/http's Transport may.
// It records each body by host and path.
type lateReaderTransport struct {
	wg     sync.WaitGroup
	mu     sync.Mutex
	bodies map[string]string
}

func (lt *lateReaderTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	key, body := req.URL.Host+req.URL.Path, req.Body
	lt.wg.Add(1)
	go func() {
		defer lt.wg.Done()
		time.Sleep(2 * time.Millisecond)
		b, err := io.ReadAll(body)
		body.Close()
		if err != nil {
			b = []byte(err.Error())
		}
		lt.mu.Lock()
		lt.bodies[key] = string(b)
		lt.mu.Unlock()
	}()
	return &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Body: http.NoBody, Request: req}, nil
}

// TestLaneBodyHandover: a transport may read and close a request body
// after RoundTrip has returned, so a lane must not write the buffer of a
// body it has not been handed back. One target sends cap and assign
// pushes to 64 agents on one lane, each body read only after the lane has
// moved on; every agent's recorded body must be its own, intact.
func TestLaneBodyHandover(t *testing.T) {
	const n = 64
	lt := &lateReaderTransport{bodies: make(map[string]string, n)}
	ctl, pushes := laneRig(t, n, time.Minute, lt)
	want := make(map[string]string, n)
	for i := range pushes {
		p := &pushes[i]
		var body []byte
		var err error
		if i%3 == 1 {
			p.kind, p.be = pushAssign, ctl.cfg.BE[i%len(ctl.cfg.BE)]
			body, err = json.Marshal(AssignRequest{BE: p.be})
			want[p.agent.assignURL.Host+RouteAssign] = string(body)
		} else {
			body, err = json.Marshal(CapRequest{CapW: p.capW})
			want[p.agent.capURL.Host+RouteCap] = string(body)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	errs, _ := runFanOut(t, context.Background(), ctl, pushes, 1, time.Minute)
	lt.wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	for key, w := range want {
		if got := lt.bodies[key]; got != w {
			t.Errorf("%s received %q, want %q", key, got, w)
		}
	}
}

// TestLaneReusesRequestOverHTTP: a lane reuses its request, body and
// drain from RPC to RPC over net/http's own Transport and a real
// listener, alternating POSTs and GETs on one and on four targets, each
// making its share of the RPCs on its worker's lane. Under the race
// detector this checks that the transport has let go of all three by the
// time the lane writes them again.
func TestLaneReusesRequestOverHTTP(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			writeJSON(w, http.StatusOK, CapResponse{Agent: "lane-agent-0", CapW: 150})
			return
		}
		writeJSON(w, http.StatusOK, TraceResponse{Agent: "lane-agent-0"})
	}))
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	ctl, err := NewController(ControllerConfig{AgentURLs: []string{srv.URL}, Timeout: 5 * time.Second, Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	a := ctl.agents[0]
	const n = 200
	for _, targets := range []int{1, 4} {
		errs := make([]error, n)
		ctl.fanOut(context.Background(), targets, func(l *rpcLane, w int) {
			for i := w; i < n; i += targets {
				if i%2 == 0 {
					errs[i] = ctl.push(l, &pendingPush{kind: pushCap, agent: a, capW: 100 + float64(i)})
				} else {
					errs[i] = l.call(a.statsURL, nil, nil)
				}
			}
		})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%d targets, RPC %d: %v", targets, i, err)
			}
		}
	}
}

// countingTransport acknowledges every request and records the last
// request body it read.
type countingTransport struct {
	sent atomic.Int64
	mu   sync.Mutex
	last []byte
}

func (ct *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ct.sent.Add(1)
	b, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	ct.mu.Lock()
	ct.last = b
	ct.mu.Unlock()
	return &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Body: http.NoBody, Request: req}, nil
}

// capBodyFuzzSeeds are the float64 bit patterns FuzzCapRequestBody
// starts from: both sides of encoding/json's 'f'/'e' switch, the
// extremes and the non-finite values. TestFuzzCorpusCommitted mirrors
// them into testdata/fuzz/FuzzCapRequestBody.
var capBodyFuzzSeeds = []float64{
	0, math.Copysign(0, -1), 123.456, 1e-6, 1e-7, 9.99e20, 1e21, 5e-324,
	math.MaxFloat64, -1e-9, math.NaN(), math.Inf(1), math.Inf(-1),
}

// capBits is the fuzz argument for v: its bits, little-endian.
func capBits(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }

// FuzzCapRequestBody holds the controller's cap push body to
// json.Marshal for any float64 bit pattern, the first 8 bytes of the
// input, zero-padded, little-endian. A finite cap's body equals
// json.Marshal(CapRequest{CapW: v}) byte for byte, goes on the wire as
// is, and reads back to the same bits on the agent's in-place path
// (parseCanonicalCap). A non-finite cap fails its push with
// json.Marshal's error, and nothing is sent.
func FuzzCapRequestBody(f *testing.F) {
	for _, v := range capBodyFuzzSeeds {
		f.Add(capBits(v))
	}
	ct := &countingTransport{}
	ctl, pushes := laneRig(f, 1, time.Minute, ct)
	f.Fuzz(func(t *testing.T, in []byte) {
		var bits [8]byte
		copy(bits[:], in)
		v := math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))
		want, wantErr := json.Marshal(CapRequest{CapW: v})
		got, err := appendCapRequest(nil, v)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%v: appendCapRequest err %v, json.Marshal err %v", v, err, wantErr)
		}
		pushes[0].capW = v
		before := ct.sent.Load()
		var pushErr error
		ctl.fanOut(context.Background(), 1, func(l *rpcLane, _ int) { pushErr = ctl.push(l, &pushes[0]) })
		sent := ct.sent.Load() - before
		if wantErr != nil {
			if sent != 0 || pushErr == nil || pushErr.Error() != wantErr.Error() {
				t.Fatalf("%v: push sent %d requests, err %v; want none sent and %v", v, sent, pushErr, wantErr)
			}
			return
		}
		if string(got) != string(want) {
			t.Fatalf("%v (%#x): body %q, json.Marshal %q", v, math.Float64bits(v), got, want)
		}
		if sent != 1 || pushErr != nil || string(ct.last) != string(want) {
			t.Fatalf("%v: push sent %d requests, err %v, last body %q; want one, %q", v, sent, pushErr, ct.last, want)
		}
		if w, ok := parseCanonicalCap(got); !ok || math.Float64bits(w) != math.Float64bits(v) {
			t.Fatalf("%q: in-place path read %v (%#x, ok %v), want %#x", got, w, math.Float64bits(w), ok, math.Float64bits(v))
		}
	})
}

// TestStatsUnescapedFastPath: an agent whose name holds <, > and & serves
// it unescaped, so the poll decoder's fast path takes its /v1/stats body
// on every probe instead of handing it to encoding/json.
func TestStatsUnescapedFastPath(t *testing.T) {
	const name = "agent<07>&co"
	a := newTestAgent(t, name, "xapian", "graph")
	var cache *statsCache
	for probe := 0; probe < 3; probe++ {
		rec := httptest.NewRecorder()
		a.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, RouteStats, nil))
		var st StatsResponse
		next, fast, err := decodeStats(rec.Body.Bytes(), cache, &st)
		if err != nil || !fast {
			t.Fatalf("probe %d of %q: fast %v, err %v; body starts %.80q", probe, name, fast, err, rec.Body.String())
		}
		if st.Agent != name {
			t.Fatalf("probe %d decoded agent %q, want %q", probe, st.Agent, name)
		}
		cache = next
	}
}
