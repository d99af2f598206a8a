package controlplane

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the controller's RPC layer: the fan-out that runs a
// round's probes, pushes or trace pages, and the lanes its workers make
// them on. It knows nothing of the round; the round hands it targets and
// an rpc function per fan-out.

// rpcClient makes agent RPCs. It holds the RoundTripper every RPC goes
// through, the timeout that bounds each RPC from its own start, and the
// lanes no fan-out holds, kept for the next fan-out.
type rpcClient struct {
	transport http.RoundTripper
	timeout   time.Duration

	// laneMu guards lanes.
	laneMu sync.Mutex
	lanes  []*rpcLane
}

// getHeader is every GET's header and jsonHeader every POST's. Requests
// share them, so nothing may write them: a RoundTripper must not modify
// a request.
var (
	getHeader  = http.Header{}
	jsonHeader = http.Header{"Content-Type": {"application/json"}}
)

// maxReplyDrain bounds what call reads of a reply that read left
// unfinished: a reply longer than that is not worth keeping its
// connection for.
const maxReplyDrain = 4 << 10

// rpcLane is one RPC fan-out worker's request state. A worker takes a
// lane when it finds its first target and returns it to the client when
// it finds no more, so lanes serve fan-out after fan-out. A lane owns
// what each RPC would otherwise build afresh: the request context and the
// deadline that bounds it, one *http.Request, the POST body and its
// buffer, and the reply drain. So in steady state an RPC allocates nothing
// on the controller. Only the worker holding the lane uses it.
type rpcLane struct {
	c      *rpcClient
	parent context.Context // the fan-out's, which ctx derives from
	// ctx bounds the lane's RPCs, each for the client's timeout from its
	// own start (laneDeadline). A deadline that expired has cancelled ctx,
	// so the next RPC derives a fresh context and deadline; so does a
	// fan-out on a context other than parent. Both are nil until the first
	// fan-out. Between fan-outs ctx stays registered on parent, which a
	// fan-out on another context, or parent's end, releases.
	ctx context.Context
	dl  *laneDeadline
	// req is bound to ctx. The RoundTripper contract releases a request
	// once its reply body is closed, so the next RPC reuses it; a transport
	// error leaves no reply to close, and the request is dropped.
	req *http.Request
	// body is the POST body in flight or last sent, and getBody is
	// l.rewind, bound once.
	body    *laneBody
	getBody func() (io.ReadCloser, error)
	// drain bounds what drainClose reads of a reply, into scratch.
	drain   io.LimitedReader
	scratch [64]byte
}

// laneBody is a lane's POST body. A transport may read and close it on
// another goroutine, even after RoundTrip has returned, so the lane writes
// its buffer again only once Close has been called and no second reader
// over it was lent out (rewind).
type laneBody struct {
	r    bytes.Reader
	buf  []byte
	held atomic.Bool // handed to the transport and not closed since
	lent atomic.Bool // a second reader over buf was handed out
	arr  [64]byte    // buf's first backing array: a push body fits
}

func (b *laneBody) Read(p []byte) (int, error) { return b.r.Read(p) }

// Close releases the body back to its lane.
func (b *laneBody) Close() error {
	b.held.Store(false)
	return nil
}

// bodyBuf returns an empty buffer for the lane's next POST body to be
// appended to: the last body's, once the transport has released it, else
// a fresh one.
func (l *rpcLane) bodyBuf() []byte {
	if b := l.body; b != nil && !b.held.Load() && !b.lent.Load() {
		return b.buf[:0]
	}
	b := new(laneBody)
	b.buf = b.arr[:0]
	l.body = b
	return b.buf
}

// rewind is the lane's GetBody, which a transport calls within RoundTrip
// to send the body again. It lends out a second reader over the buffer,
// whose end the lane cannot see, so the lane stops reusing that buffer.
func (l *rpcLane) rewind() (io.ReadCloser, error) {
	b := l.body
	b.lent.Store(true)
	return io.NopCloser(bytes.NewReader(b.buf)), nil
}

// laneDeadline bounds the RPCs on one lane context. Its timer is armed
// once per fan-out, and each RPC stores its start in start, which the
// timer reads: no RPC resets or stops the timer. When the timer fires it
// cancels the context, with cause context.DeadlineExceeded, if the RPC
// in flight has run for timeout, and otherwise re-arms for that RPC's
// own deadline. Finding no RPC in flight, it parks the deadline instead
// of re-arming, and the next RPC arms it again. So each RPC is cancelled
// about timeout after its own start, and the timer fires about once a
// timeout while its lane is busy. The other fields never change, so the
// timer's callback shares only start with the lane.
type laneDeadline struct {
	timeout time.Duration
	cancel  context.CancelCauseFunc
	timer   *time.Timer
	// start is the RPC in flight's start on laneClock, or laneIdle (no RPC
	// in flight, the timer armed), laneParked (no RPC in flight, the timer
	// stopped: the lane is between fan-outs or sat idle for a timeout) or
	// laneExpired (the timer cancelled the context and will not fire
	// again).
	start atomic.Int64
}

// The laneDeadline.start values that are not a start time.
const (
	laneIdle = -1 - iota
	laneParked
	laneExpired
)

// laneEpoch is laneClock's origin.
var laneEpoch = time.Now()

// laneClock reads the monotonic clock, in nanoseconds since laneEpoch.
func laneClock() int64 { return int64(time.Since(laneEpoch)) }

// expire is the deadline timer's callback; see laneDeadline.
func (d *laneDeadline) expire() {
	for {
		s := d.start.Load()
		switch s {
		case laneParked, laneExpired:
			return
		case laneIdle:
			if d.start.CompareAndSwap(laneIdle, laneParked) {
				return
			}
			continue // an RPC has started since the load
		}
		if left := d.timeout - time.Duration(laneClock()-s); left > 0 {
			d.timer.Reset(left)
			return
		}
		// The CAS fails if the RPC has ended since the load.
		if d.start.CompareAndSwap(s, laneExpired) {
			d.cancel(context.DeadlineExceeded)
			return
		}
	}
}

// derive gives the lane a fresh context from parent, with an armed
// deadline, and cancels the context it replaces, which releases it from
// its parent. The request was bound to the old context, so it is dropped.
func (l *rpcLane) derive(parent context.Context) {
	if l.dl != nil {
		l.dl.cancel(nil)
	}
	ctx, cancel := context.WithCancelCause(parent)
	d := &laneDeadline{timeout: l.c.timeout, cancel: cancel}
	d.start.Store(laneIdle)
	// Created unarmed and armed once d.timer is set, which the callback
	// reads.
	d.timer = time.AfterFunc(math.MaxInt64, d.expire)
	d.timer.Reset(d.timeout)
	l.parent, l.ctx, l.dl, l.req = parent, ctx, d, nil
}

// open readies the lane for a fan-out on ctx. It keeps the lane's context
// and arms its deadline's timer, unless the lane has no context yet, its
// last RPC expired it, or it derives from another: then it derives one.
func (l *rpcLane) open(ctx context.Context) {
	if l.dl == nil || l.parent != ctx || l.dl.start.Load() == laneExpired {
		l.derive(ctx)
		return
	}
	l.dl.start.Store(laneIdle)
	l.dl.timer.Reset(l.dl.timeout)
}

// park takes the lane out of its fan-out: it stops the deadline's timer,
// unless the timer has stopped itself, having parked or expired the
// deadline. A timer that fires as it is stopped finds it parked.
func (l *rpcLane) park() {
	if l.dl.start.CompareAndSwap(laneIdle, laneParked) {
		l.dl.timer.Stop()
	}
}

// call is the one agent RPC, made on lane l: a GET of u, or with a body
// (appended to bodyBuf's buffer) a JSON POST of it, bounded by the
// client's timeout from its own start. The request goes straight to the
// client's RoundTripper, so a redirect is not followed, and a transport
// error reads as http.Client would report it (Get "<url>": <cause>); a
// timeout's cause is context.DeadlineExceeded. A 200 reply's body goes to
// read when read is non-nil; any other status is an error that carries
// the start of the agent's reply. Up to maxReplyDrain bytes of whatever
// read leaves of the reply are drained before it is closed: a reply
// closed unread makes the transport drop its connection instead of
// pooling it.
func (l *rpcLane) call(u *url.URL, body []byte, read func(body io.Reader) error) error {
	if l.dl.start.Load() == laneExpired {
		l.derive(l.parent)
	}
	start := laneClock()
	if l.dl.start.Swap(start) == laneParked {
		l.dl.timer.Reset(l.dl.timeout) // the lane sat idle for a timeout
	}
	// Fails, leaving laneExpired, if the deadline expired this RPC.
	defer l.dl.start.CompareAndSwap(start, laneIdle)
	req := l.req
	if req == nil {
		req = (&http.Request{Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}).WithContext(l.ctx)
		l.req = req
	}
	req.URL, req.Host = u, u.Host
	op := "Get"
	if body == nil {
		req.Method, req.Header = http.MethodGet, getHeader
		req.Body, req.GetBody, req.ContentLength = nil, nil, 0
	} else {
		b := l.body
		b.buf = body
		b.r.Reset(body)
		b.held.Store(true)
		if l.getBody == nil {
			l.getBody = l.rewind
		}
		req.Method, req.Header, op = http.MethodPost, jsonHeader, "Post"
		req.Body, req.GetBody, req.ContentLength = b, l.getBody, int64(len(body))
	}
	resp, err := l.c.transport.RoundTrip(req)
	if err != nil {
		l.req = nil
		return &url.Error{Op: op, URL: u.String(), Err: err}
	}
	defer l.drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", req.Method, u, resp.Status, bytes.TrimSpace(msg))
	}
	if read != nil {
		return read(resp.Body)
	}
	return nil
}

// drainClose reads up to maxReplyDrain bytes of what is left of a reply,
// then closes it. It reads into the lane's own scratch, where io.Discard
// would take a buffer from a shared pool.
func (l *rpcLane) drainClose(body io.ReadCloser) {
	l.drain.R, l.drain.N = body, maxReplyDrain
	for {
		if _, err := l.drain.Read(l.scratch[:]); err != nil {
			break
		}
	}
	l.drain.R = nil
	body.Close()
}

// maxRPCWorkers is how many workers every RPC fan-out (probes, pushes,
// trace pages) starts up front, whatever GOMAXPROCS is: an RPC waits on
// its agent, not on a core. A fan-out grows past them only while RPCs
// block, up to one worker per target (fanOut), so no RPC queues behind a
// stalled one and a fan-out costs at most one timeout however many
// agents stall.
const maxRPCWorkers = 32

// fanOut runs rpc for every target i in [0, n) and returns when all are
// done. It starts min(n, maxRPCWorkers) workers, the calling goroutine
// among them, and splits the targets into one contiguous run per worker.
// A worker takes the bottom of its own run, with a CAS on a word alone on
// its cache line; once its run is empty it steals the top half of the
// fullest run into its own. So a fan-out whose RPCs return at once takes
// its targets with no write another core reads, however many workers
// share it.
//
// The fan-out grows past its first workers only while RPCs block: a
// worker that takes a target while targets remain, fewer than n workers
// exist and every worker has taken one starts a spare, which once it has
// taken a target may start the next. A spare has no run and steals one
// target at a time from the fullest. So at most one spare waits to be
// scheduled at a time, a fan-out whose RPCs return at once runs on about
// maxRPCWorkers goroutines however wide it is, a worker blocked in an RPC
// holds only that RPC, and each blocked RPC still gets a worker of its
// own: a fan-out costs at most one timeout however many of its RPCs
// stall. (A worker the runtime parks, as in a GC assist, counts as
// blocked too.)
//
// A worker that finds a target makes its RPCs on a lane the client keeps
// across fan-outs (rpcLane), whose context derives from ctx, and returns
// it when it finds no more; a worker that finds none, as when the first
// workers drain a wide fan-out, takes no lane. rpc must write its result
// into index-disjoint storage.
func (c *rpcClient) fanOut(ctx context.Context, n int, rpc func(l *rpcLane, i int)) {
	if n < 1 {
		return
	}
	upfront := min(n, maxRPCWorkers)
	f := &fanState{c: c, ctx: ctx, rpc: rpc, n: int64(n), runs: make([]targetRun, upfront)}
	for w := range f.runs {
		f.runs[w].span.Store(runSpan(w*n/upfront, (w+1)*n/upfront))
	}
	f.workers.Store(int64(upfront))
	f.idle.Store(int64(upfront))
	for w := 1; w < upfront; w++ {
		f.start(w)
	}
	f.work(0)
	f.wg.Wait()
}

// fanState is one fan-out's shared state.
type fanState struct {
	c    *rpcClient
	ctx  context.Context
	rpc  func(l *rpcLane, i int)
	n    int64       // targets, and the most workers
	runs []targetRun // one per upfront worker
	// workers counts the workers started, and idle those yet to take a
	// target: each changes only as a worker starts or takes its first.
	workers, idle atomic.Int64
	wg            sync.WaitGroup
}

// targetRun is an upfront worker's run of targets [lo, hi), packed into
// one word (runSpan). The padding keeps each run's word on a cache line of
// its own, so a worker taking from its own run writes no line another
// worker reads.
type targetRun struct {
	span atomic.Uint64
	_    [56]byte
}

// runSpan packs a run's bounds into its word, lo in the high half.
func runSpan(lo, hi int) uint64 { return uint64(lo)<<32 | uint64(hi) }

// spanBounds unpacks a run's word.
func spanBounds(s uint64) (lo, hi int) { return int(s >> 32), int(uint32(s)) }

// start starts the worker of runs[run], or with run -1 a spare.
func (f *fanState) start(run int) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.work(run)
	}()
}

// work is the worker of runs[run], or with run -1 a spare: it serves
// targets on one lane until none is left.
func (f *fanState) work(run int) {
	i := f.take(run)
	f.idle.Add(-1)
	if i < 0 {
		return
	}
	l := f.c.takeLane(f.ctx)
	defer f.c.keepLane(l)
	for ; i >= 0; i = f.take(run) {
		// Load before the CAS, so that while a worker is idle or the
		// fan-out has a worker per target, taking a target writes nothing
		// shared.
		if f.idle.Load() == 0 && f.workers.Load() < f.n && f.left() && f.idle.CompareAndSwap(0, 1) {
			// Until the spare takes a target, idle reads 1 and no other
			// worker gets here, so workers cannot move under the check.
			if f.workers.Load() < f.n {
				f.workers.Add(1)
				f.start(-1)
			} else {
				f.idle.Store(0)
			}
		}
		f.rpc(l, i)
	}
}

// take returns the next target for the worker of runs[run] (a spare's run
// is -1): the bottom of its own run, else a stolen one. It returns -1 once
// every run is empty.
func (f *fanState) take(run int) int {
	if run >= 0 {
		r := &f.runs[run].span
		for {
			s := r.Load()
			lo, hi := spanBounds(s)
			if lo >= hi {
				break
			}
			if r.CompareAndSwap(s, runSpan(lo+1, hi)) {
				return lo
			}
		}
	}
	return f.steal(run)
}

// steal takes from the top of the fullest run: a spare one target, the
// worker of runs[run] the top half, of which it returns the first and
// makes the rest its own run. Only its worker fills a run, and only once
// the run is empty, when no other worker writes its word. It returns -1
// once every run is empty.
func (f *fanState) steal(run int) int {
	for {
		var victim *atomic.Uint64
		var s uint64
		most := 0
		for v := range f.runs {
			w := f.runs[v].span.Load()
			if lo, hi := spanBounds(w); hi-lo > most {
				victim, s, most = &f.runs[v].span, w, hi-lo
			}
		}
		if victim == nil {
			return -1
		}
		k := 1
		if run >= 0 {
			k = (most + 1) / 2
		}
		lo, hi := spanBounds(s)
		if !victim.CompareAndSwap(s, runSpan(lo, hi-k)) {
			continue
		}
		if k > 1 {
			f.runs[run].span.Store(runSpan(hi-k+1, hi))
		}
		return hi - k
	}
}

// left reports whether any run still holds a target.
func (f *fanState) left() bool {
	for v := range f.runs {
		if lo, hi := spanBounds(f.runs[v].span.Load()); lo < hi {
			return true
		}
	}
	return false
}

// takeLane returns a kept lane, or a new one, opened for a fan-out on ctx.
func (c *rpcClient) takeLane(ctx context.Context) *rpcLane {
	var l *rpcLane
	c.laneMu.Lock()
	if k := len(c.lanes) - 1; k >= 0 {
		l = c.lanes[k]
		c.lanes = c.lanes[:k]
	}
	c.laneMu.Unlock()
	if l == nil {
		l = &rpcLane{c: c}
	}
	l.open(ctx)
	return l
}

// keepLane parks a lane whose worker has finished and keeps it for the
// next fan-out.
func (c *rpcClient) keepLane(l *rpcLane) {
	l.park()
	c.laneMu.Lock()
	c.lanes = append(c.lanes, l)
	c.laneMu.Unlock()
}
