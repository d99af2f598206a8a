package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pocolo/internal/obs"
	"pocolo/internal/parallel"
	"pocolo/internal/trace"
)

// This file is the controller half of the streaming transport. Agents
// push binary delta heartbeats (codec.go) instead of being polled; the
// controller ingests them — one at a time over POST /v1/heartbeat, or
// batched through the bounded worker pool — into per-pod state shards.
// A frame is read and decoded into controller-owned storage before any
// lock is taken, and a shard's mutex covers only folding it into the
// agent's decoder, so a delta costs no allocation from bytes to fold.
// The round takes each pod's lock once, copies out the reports that
// changed since it last looked, and releases the lock before it logs or
// decides anything: a stalled sender can block nothing but its own
// pod's ingest, and a round waits on ingest at most one pod's fold.

// maxHeartbeatBatch bounds one IngestBatch call.
const maxHeartbeatBatch = 1 << 16

// decodeRun is how many consecutive frames of a batch one decode task
// takes: enough to amortize the hand-off over ~100 ns deltas, few enough
// to spread a burst of full frames over every worker.
const decodeRun = 64

// hbDecoder is the receiver half of the delta protocol for one agent:
// the last applied snapshot, its seq and epoch, and when it applied.
// Guarded by its shard's mutex.
type hbDecoder struct {
	synced bool
	seq    uint64
	epoch  uint64
	// refitSeq is the seq of the last full frame applied whose placement
	// inputs differ from those it replaced (sameInputs): only a full frame
	// carries the agent's name, platform, LC envelope and models.
	refitSeq uint64
	stats    StatsResponse
	heard    time.Time // the ingest clock when the last frame applied
}

// hbVerdict classifies one frame's fate.
type hbVerdict int

const (
	hbApplied hbVerdict = iota
	hbStale             // duplicate or reordered behind the applied seq; ignored
	hbResync            // cannot apply; sender must promote to a full frame
)

// apply folds one decoded frame into the decoder. A full frame always
// (re)establishes sync unless it is older than what already applied; a
// delta applies only when its base is exactly the last applied seq, so
// loss, reordering, and field-mask lies degrade to a resync demand, not
// to corrupted state. A full frame that repeats the applied placement
// inputs is no refit, and keeps the applied models, as the poll decoder
// keeps an unchanged section.
func (d *hbDecoder) apply(hb *Heartbeat) hbVerdict {
	if hb.Full {
		if d.synced && hb.Seq <= d.seq {
			// A full frame that regresses the sequence is either a
			// network replay or a restarted sender whose fresh encoder
			// began again at 1. Both get a resync demand carrying the
			// receiver's watermark (the ack's Seq): a replayed frame's
			// live sender ignores it at worst one extra full frame,
			// while a restarted sender adopts the watermark so its next
			// full frame clears it — state never rolls back, and a
			// restart converges in two heartbeats.
			return hbResync
		}
		if d.synced && sameInputs(&d.stats, &hb.Stats) {
			hb.Stats.LCModel, hb.Stats.BEModels = d.stats.LCModel, d.stats.BEModels
		} else {
			d.refitSeq = hb.Seq
		}
		d.stats = hb.Stats
		d.seq = hb.Seq
		d.epoch = hb.Epoch
		d.synced = true
		return hbApplied
	}
	if !d.synced {
		return hbResync
	}
	if hb.Seq <= d.seq {
		return hbStale
	}
	if hb.Base != d.seq {
		return hbResync
	}
	applyHeartbeatDelta(&d.stats, hb)
	d.seq = hb.Seq
	d.epoch = hb.Epoch
	return hbApplied
}

// resyncSeq picks the sequence a resync ack should carry: the
// receiver's watermark when it is ahead of the frame (so a restarted
// sender can adopt it), otherwise the frame's own sequence.
func resyncSeq(frameSeq, watermark uint64) uint64 {
	if watermark > frameSeq {
		return watermark
	}
	return frameSeq
}

// streamShard is one pod's ingest state: its agents' decoders behind a
// mutex.
type streamShard struct {
	base int // first global slot in this shard

	mu   sync.Mutex
	decs []hbDecoder
}

// nameBinding is the slot a full frame bound an agent name to, and the
// name itself: a delta's ack carries this string, not a copy of the
// frame's bytes.
type nameBinding struct {
	name string
	slot int
}

// ingestBuf is one ingest call's working storage: a decode slot and the
// framed agent name per frame, each frame's routed slot, and per shard
// the frames routed to it.
type ingestBuf struct {
	hbs     []Heartbeat
	names   [][]byte // alias the caller's frames; cleared on return
	slots   []int    // the routed slot; -1 for a frame the decoder rejected
	byShard [][]int  // frame indices, in arrival order
}

// streamState is the controller's streaming ingest plane.
type streamState struct {
	podSize int
	slots   map[string]int // configured agent URL → global slot
	shards  []*streamShard

	// names binds agent names to slots. Full frames bind (every agent at
	// discovery and again on every resync) and deltas resolve, by the
	// frame's name bytes.
	namesMu sync.Mutex
	names   map[string]nameBinding

	// spare is the ingest buffer the next call takes. A call that finds
	// none (a concurrent one holds it) allocates its own; the larger one
	// is kept. It is not a sync.Pool: a pool drops what it holds within
	// two collections, and a controller collects between heartbeats.
	spareMu sync.Mutex
	spare   *ingestBuf

	// fresh marks, for the pod the round is folding, which agents'
	// reports changed since the last round, and refit which of those
	// include a full frame that changed the agent's placement inputs
	// (round-owned, under Controller.mu).
	fresh, refit []bool

	// Cumulative ingest counters (atomic: ingest is concurrent). The
	// round loop snapshots them and traces the per-round delta.
	frames, fulls, deltas, stale, resyncs, rejects, bytes atomic.Int64
	prev                                                  trace.HeartbeatSummary // counter values already traced
}

func newStreamState(urls []string, podSize int) *streamState {
	s := &streamState{
		podSize: podSize,
		slots:   make(map[string]int, len(urls)),
		names:   make(map[string]nameBinding, len(urls)),
		fresh:   make([]bool, podSize),
		refit:   make([]bool, podSize),
	}
	for i, u := range urls {
		s.slots[u] = i
	}
	nShards := (len(urls) + podSize - 1) / podSize
	s.shards = make([]*streamShard, nShards)
	for p := range s.shards {
		lo, hi := p*podSize, (p+1)*podSize
		if hi > len(urls) {
			hi = len(urls)
		}
		s.shards[p] = &streamShard{base: lo, decs: make([]hbDecoder, hi-lo)}
	}
	return s
}

// shardOf returns the shard owning a global slot and the local index.
func (s *streamState) shardOf(slot int) (*streamShard, int) {
	return s.shards[slot/s.podSize], slot % s.podSize
}

// takeBuf returns an ingest buffer with room for n frames.
func (s *streamState) takeBuf(n int) *ingestBuf {
	s.spareMu.Lock()
	b := s.spare
	s.spare = nil
	s.spareMu.Unlock()
	if b == nil {
		b = &ingestBuf{byShard: make([][]int, len(s.shards))}
	}
	if len(b.hbs) < n {
		b.hbs = make([]Heartbeat, n)
		b.names = make([][]byte, n)
		b.slots = make([]int, n)
	}
	return b
}

// putBuf returns a buffer taken by takeBuf whose first n frames were
// used.
func (s *streamState) putBuf(b *ingestBuf, n int) {
	clear(b.names[:n])
	s.spareMu.Lock()
	if s.spare == nil || len(s.spare.hbs) < len(b.hbs) {
		s.spare = b
	}
	s.spareMu.Unlock()
}

// route resolves a decoded frame, whose framed agent name is name, to its
// global slot and sets hb.Agent. Full frames bind by the advertised URL
// and (re)bind the agent name; deltas resolve by the name bound by an
// earlier full frame, looked up by the name bytes, and take the bound
// string. A frame it cannot place gets its resync ack instead.
func (s *streamState) route(hb *Heartbeat, name []byte) (slot int, ack HeartbeatAck, ok bool) {
	if hb.Full {
		hb.Agent = hb.Stats.Agent // the decoder held it equal to name
		// An unconfigured URL is refused, not bound.
		if slot, ok = s.slots[hb.URL]; ok {
			s.namesMu.Lock()
			s.names[hb.Agent] = nameBinding{name: hb.Agent, slot: slot}
			s.namesMu.Unlock()
		}
	} else {
		s.namesMu.Lock()
		b, bound := s.names[string(name)]
		s.namesMu.Unlock()
		if bound {
			hb.Agent, slot, ok = b.name, b.slot, true
		} else {
			hb.Agent = string(name)
		}
	}
	if !ok {
		return 0, s.ack(hb, hbResync, 0), false
	}
	return slot, HeartbeatAck{}, true
}

// applyLocked folds one routed frame into decoder li of sh, stamping it
// heard at now if it applies, and returns its ack. Callers hold sh.mu.
func (s *streamState) applyLocked(sh *streamShard, li int, hb *Heartbeat, now time.Time) HeartbeatAck {
	d := &sh.decs[li]
	v := d.apply(hb)
	if v == hbApplied {
		d.heard = now
	}
	return s.ack(hb, v, d.seq)
}

// ack turns a frame's verdict into the ack its sender gets and counts
// the verdict. watermark is the receiving decoder's applied seq (zero
// for a frame no decoder saw).
func (s *streamState) ack(hb *Heartbeat, v hbVerdict, watermark uint64) HeartbeatAck {
	switch v {
	case hbStale:
		s.stale.Add(1)
	case hbResync:
		s.resyncs.Add(1)
		return HeartbeatAck{Agent: hb.Agent, Seq: resyncSeq(hb.Seq, watermark), Resync: true}
	}
	return HeartbeatAck{Agent: hb.Agent, Seq: hb.Seq}
}

// summaryDelta snapshots the cumulative counters and returns the change
// since the previous call (the per-round trace payload).
func (s *streamState) summaryDelta() trace.HeartbeatSummary {
	cur := trace.HeartbeatSummary{
		Frames:  int(s.frames.Load()),
		Fulls:   int(s.fulls.Load()),
		Deltas:  int(s.deltas.Load()),
		Stale:   int(s.stale.Load()),
		Resyncs: int(s.resyncs.Load()),
		Rejects: int(s.rejects.Load()),
		Bytes:   s.bytes.Load(),
	}
	d := trace.HeartbeatSummary{
		Frames:  cur.Frames - s.prev.Frames,
		Fulls:   cur.Fulls - s.prev.Fulls,
		Deltas:  cur.Deltas - s.prev.Deltas,
		Stale:   cur.Stale - s.prev.Stale,
		Resyncs: cur.Resyncs - s.prev.Resyncs,
		Rejects: cur.Rejects - s.prev.Rejects,
		Bytes:   cur.Bytes - s.prev.Bytes,
	}
	s.prev = cur
	return d
}

// StreamStats is the controller's cumulative heartbeat-ingest counters
// (zero-valued under the polling transport).
type StreamStats struct {
	Frames  int64 `json:"frames"`
	Fulls   int64 `json:"fulls"`
	Deltas  int64 `json:"deltas"`
	Stale   int64 `json:"stale"`
	Resyncs int64 `json:"resyncs"`
	Rejects int64 `json:"rejects"`
	Bytes   int64 `json:"bytes"`
}

// StreamStats reports the cumulative ingest counters (zero when the
// controller polls).
func (c *Controller) StreamStats() StreamStats {
	s := c.stream
	if s == nil {
		return StreamStats{}
	}
	return StreamStats{
		Frames:  s.frames.Load(),
		Fulls:   s.fulls.Load(),
		Deltas:  s.deltas.Load(),
		Stale:   s.stale.Load(),
		Resyncs: s.resyncs.Load(),
		Rejects: s.rejects.Load(),
		Bytes:   s.bytes.Load(),
	}
}

// IngestHeartbeat decodes and applies one pushed frame, returning the
// ack to send back. Safe for concurrent use; only the owning shard
// locks, and only to fold the decoded frame.
func (c *Controller) IngestHeartbeat(frame []byte) HeartbeatAck {
	s := c.stream
	if s == nil {
		return HeartbeatAck{Reject: true}
	}
	buf := s.takeBuf(1)
	defer s.putBuf(buf, 1)
	hb := &buf.hbs[0]
	var t frameTally
	name, err := c.decodeFrame(frame, hb, &t)
	s.count(&t)
	if err != nil {
		c.logf("heartbeat rejected: %v", err)
		return HeartbeatAck{Reject: true}
	}
	slot, ack, ok := s.route(hb, name)
	if !ok {
		return ack
	}
	sh, li := s.shardOf(slot)
	now := c.now()
	sh.mu.Lock()
	ack = s.applyLocked(sh, li, hb, now)
	sh.mu.Unlock()
	return ack
}

// frameTally counts decoded frames toward streamState's cumulative
// counters. A batch tallies each run of frames locally and adds the run
// once, so decode workers do not contend on the counters per frame.
type frameTally struct{ frames, fulls, deltas, rejects, bytes int64 }

// count adds a tally to the cumulative counters.
func (s *streamState) count(t *frameTally) {
	s.frames.Add(t.frames)
	s.bytes.Add(t.bytes)
	s.fulls.Add(t.fulls)
	s.deltas.Add(t.deltas)
	s.rejects.Add(t.rejects)
}

// decodeFrame decodes one frame into hb, timing the decode when
// observed, and tallies it: its bytes, and whether it was a full frame,
// a delta, or a reject. It zeroes hb first (a reused slot may hold the
// maps of a full frame its decoder now owns) and returns the framed
// agent name, which route resolves.
func (c *Controller) decodeFrame(frame []byte, hb *Heartbeat, t *frameTally) ([]byte, error) {
	t.frames++
	t.bytes += int64(len(frame))
	*hb = Heartbeat{}
	var timer obs.Timer
	if c.obs != nil {
		timer = c.obs.decode.Start()
	}
	name, err := decodeHeartbeatInto(frame, hb, inflateSnapshot)
	timer.Stop()
	switch {
	case err != nil:
		t.rejects++
	case hb.Full:
		t.fulls++
	default:
		t.deltas++
	}
	return name, err
}

// IngestBatch decodes a batch of frames through the bounded worker pool,
// groups the survivors by shard, and applies each shard's frames under
// one lock acquisition. Acks are returned in frame order; the batch's
// other working storage is the controller's, reused across calls, so a
// call allocates a constant number of objects however many deltas it
// applies. This is the benchmarks' bulk path; a live deployment, and the
// fault campaign's loopback fabric, reach the same shards one frame at
// a time through the HTTP handler (IngestHeartbeat). Both entry points
// share decodeFrame, route, applyLocked and ack, so a frame's fate and
// its counters do not depend on the path it took.
func (c *Controller) IngestBatch(frames [][]byte) []HeartbeatAck {
	s := c.stream
	acks := make([]HeartbeatAck, len(frames))
	if s == nil {
		for i := range acks {
			acks[i] = HeartbeatAck{Reject: true}
		}
		return acks
	}
	if len(frames) > maxHeartbeatBatch {
		// Frames past the limit are refused, not dropped: a reject ack
		// sends each sender back to a full frame on its next heartbeat.
		for i := maxHeartbeatBatch; i < len(frames); i++ {
			s.frames.Add(1)
			s.bytes.Add(int64(len(frames[i])))
			s.rejects.Add(1)
			acks[i] = HeartbeatAck{Reject: true}
		}
		frames = frames[:maxHeartbeatBatch]
	}
	n := len(frames)
	buf := s.takeBuf(n)
	defer s.putBuf(buf, n)
	c.decodeBatch(buf, frames, acks)
	s.routeBatch(buf, n, acks)
	s.applyBatch(buf, c.now(), acks)
	return acks
}

// decodeBatch decodes frames into buf through the worker pool. Full
// frames carry JSON snapshots, the one genuinely expensive decode. Each
// task decodes a contiguous run of frames, so workers write disjoint
// stretches of the buffers. A frame that fails to decode gets a reject
// ack and slot -1.
func (c *Controller) decodeBatch(buf *ingestBuf, frames [][]byte, acks []HeartbeatAck) {
	s := c.stream
	n := len(frames)
	hbs, names, slots := buf.hbs[:n], buf.names[:n], buf.slots[:n]
	_ = parallel.ForEach((n+decodeRun-1)/decodeRun, 0, func(k int) error {
		var t frameTally
		for i := k * decodeRun; i < min(n, (k+1)*decodeRun); i++ {
			var err error
			slots[i] = 0
			if names[i], err = c.decodeFrame(frames[i], &hbs[i], &t); err != nil {
				acks[i] = HeartbeatAck{Reject: true}
				slots[i] = -1
			}
		}
		s.count(&t)
		return nil
	})
}

// routeBatch routes the first n decoded frames of buf to their slots and
// lists each shard's frames in buf.byShard. It runs serially: binding
// order must be deterministic. A frame it cannot place gets its resync
// ack.
func (s *streamState) routeBatch(buf *ingestBuf, n int, acks []HeartbeatAck) {
	hbs, names, slots := buf.hbs[:n], buf.names[:n], buf.slots[:n]
	byShard := buf.byShard
	for p := range byShard {
		byShard[p] = byShard[p][:0]
	}
	for i := range hbs {
		if slots[i] < 0 {
			continue
		}
		slot, ack, ok := s.route(&hbs[i], names[i])
		if !ok {
			acks[i] = ack
			continue
		}
		slots[i] = slot
		byShard[slot/s.podSize] = append(byShard[slot/s.podSize], i)
	}
}

// applyBatch folds the routed frames of buf, stamped heard at now. Shard
// application fans out: shards share nothing, and each touched pod pays
// exactly one lock round-trip.
func (s *streamState) applyBatch(buf *ingestBuf, now time.Time, acks []HeartbeatAck) {
	byShard := buf.byShard
	_ = parallel.ForEach(len(byShard), 0, func(p int) error {
		if len(byShard[p]) == 0 {
			return nil
		}
		sh := s.shards[p]
		sh.mu.Lock()
		for _, i := range byShard[p] {
			acks[i] = s.applyLocked(sh, buf.slots[i]%s.podSize, &buf.hbs[i], now)
		}
		sh.mu.Unlock()
		return nil
	})
}

// HeartbeatHandler serves POST /v1/heartbeat: one binary frame in, one
// JSON ack out. Rejected frames get 400 with the reject ack so a
// confused sender backs off to a full resync.
func (c *Controller) HeartbeatHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if c.stream == nil {
		writeError(w, http.StatusNotFound, "controller transport is %q, not %q", c.cfg.Transport, TransportStream)
		return
	}
	frame, err := io.ReadAll(io.LimitReader(r.Body, maxHeartbeatFrame+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading frame: %v", err)
		return
	}
	if len(frame) > maxHeartbeatFrame {
		writeError(w, http.StatusRequestEntityTooLarge, "frame exceeds %d bytes", maxHeartbeatFrame)
		return
	}
	ack := c.IngestHeartbeat(frame)
	status := http.StatusOK
	if ack.Reject {
		status = http.StatusBadRequest
	}
	writeJSON(w, status, ack)
}

// PostHeartbeat POSTs one frame to baseURL's HeartbeatHandler and
// decodes the ack. Only a 200, or a 400 carrying a reject ack, is an
// ack. Any other reply (a poll-mode controller's 404, an oversized
// frame's 413, a proxy's 502) is an error naming the status and body,
// so the sender resyncs instead of taking a JSON error body for a zero
// ack. A transport error returns err with a zero ack.
func PostHeartbeat(ctx context.Context, client *http.Client, baseURL string, frame []byte) (HeartbeatAck, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+RouteHeartbeat, bytes.NewReader(frame))
	if err != nil {
		return HeartbeatAck{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := client.Do(req)
	if err != nil {
		return HeartbeatAck{}, err
	}
	defer resp.Body.Close()
	// Acks and error bodies are a line of JSON; 4 KiB bounds a stray
	// proxy page.
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	if err != nil {
		return HeartbeatAck{}, fmt.Errorf("reading heartbeat ack: %w", err)
	}
	var ack HeartbeatAck
	switch {
	case resp.StatusCode == http.StatusOK:
		if err := json.Unmarshal(body, &ack); err != nil {
			return HeartbeatAck{}, fmt.Errorf("decoding heartbeat ack: %w", err)
		}
		return ack, nil
	case resp.StatusCode == http.StatusBadRequest && json.Unmarshal(body, &ack) == nil && ack.Reject:
		return ack, nil
	}
	return HeartbeatAck{}, fmt.Errorf("controller answered %s: %s", resp.Status, bytes.TrimSpace(body))
}

// maxHeartbeatFrame bounds one pushed frame: header plus URL plus the
// snapshot blob limit with varint slack.
const maxHeartbeatFrame = maxHeartbeatBlob + maxHeartbeatName + maxHeartbeatURL + 64

// streamObserveLocked is the streaming transport's round head: fold each
// agent's latest applied frame into the controller's liveness state
// (observeLocked). Per pod it takes the shard lock once, copies the
// report of every agent whose decoder advanced since the last round into
// the agent's state, and releases the lock; the fold, which logs
// discoveries and rejoins, runs after. No network, and no lock held
// across a log line: the polling transport's probe fan-out collapses into
// one copy per changed agent. Deltas never carry placement inputs, so an
// advanced report is a refit only when a full frame that changed them
// applied since the last copy: one compare. An agent whose decoder has
// not advanced since the last round has missed a heartbeat, exactly as a
// failed poll probe would count it. Agents are visited by slot —
// c.agents[i] is slot i — so the fold costs no lookups.
func (c *Controller) streamObserveLocked(now time.Time) {
	s := c.stream
	for p, sh := range s.shards {
		agents := c.agents[sh.base : sh.base+len(sh.decs)]
		fresh, refit := s.fresh[:len(agents)], s.refit[:len(agents)]
		sh.mu.Lock()
		for li := range sh.decs {
			d, a := &sh.decs[li], agents[li]
			if fresh[li] = d.seq > a.streamSeq; fresh[li] {
				refit[li] = d.refitSeq > a.streamSeq
				a.streamSeq, a.last, a.lastHeard = d.seq, d.stats, d.heard
			}
		}
		sh.mu.Unlock()
		// The pod's staleness watermark: the max of (now − lastHeard) over
		// its agents, each also observed against the staleness SLO.
		podMax := 0.0
		for li, a := range agents {
			switch {
			case fresh[li]:
				c.observeLocked(a, &a.last, a.lastHeard, "", refit[li])
			case a.streamSeq == 0:
				c.observeLocked(a, nil, now, "no heartbeat received", false)
			default:
				c.observeLocked(a, nil, now, fmt.Sprintf("no heartbeat since seq %d", a.streamSeq), false)
			}
			if c.obs != nil && a.everSeen {
				stale := now.Sub(a.lastHeard)
				c.obs.staleSLO.Observe(stale)
				podMax = max(podMax, stale.Seconds())
			}
		}
		if c.obs != nil {
			c.obs.podStale[p].Set(podMax)
		}
	}
	if d := s.summaryDelta(); d.Frames > 0 || d.Resyncs > 0 || d.Rejects > 0 {
		c.tracer.Heartbeat(now, d)
	}
}
