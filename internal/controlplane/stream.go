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
// Each shard serializes its writers behind a mutex, folds every applied
// frame into its decoders, and publishes the pod's agent views as an
// immutable snapshot swapped in atomically. The round loop never takes
// a shard lock: it loads each pod's current snapshot pointer and reads
// frozen views, so a round costs the same whether zero or ten thousand
// frames are in flight, and a stalled sender can block nothing but its
// own pod's ingest.

// maxHeartbeatBatch bounds one IngestBatch call.
const maxHeartbeatBatch = 1 << 16

// agentView is one agent's state as of its last applied frame. Views
// are immutable after construction: ingest replaces the pointer, never
// the fields, which is what makes the round loop's lock-free reads
// sound.
type agentView struct {
	slot      int
	stats     StatsResponse
	seq       uint64
	epoch     uint64
	lastHeard time.Time
}

// podViews is one pod's published snapshot: local index → view, nil
// until that agent's first frame applies.
type podViews struct {
	views []*agentView
}

// hbDecoder is the receiver half of the delta protocol for one agent:
// the last applied snapshot and its seq. Guarded by its shard's mutex.
type hbDecoder struct {
	synced bool
	seq    uint64
	epoch  uint64
	stats  StatsResponse
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
// to corrupted state.
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

// streamShard is one pod's ingest state: decoders behind a mutex,
// published views behind an atomic pointer.
type streamShard struct {
	base int // first global slot in this shard

	mu   sync.Mutex
	decs []hbDecoder
	snap atomic.Pointer[podViews]
}

// publishLocked rebuilds and swaps the shard's snapshot from the given
// locally-indexed dirty set. Callers hold sh.mu; one swap covers a whole
// batch, so batch ingest costs one views-slice copy per touched pod.
func (sh *streamShard) publishLocked(dirty []int, now time.Time) {
	prev := sh.snap.Load()
	next := &podViews{views: make([]*agentView, len(sh.decs))}
	if prev != nil {
		copy(next.views, prev.views)
	}
	for _, li := range dirty {
		d := &sh.decs[li]
		next.views[li] = &agentView{
			slot:      sh.base + li,
			stats:     d.stats,
			seq:       d.seq,
			epoch:     d.epoch,
			lastHeard: now,
		}
	}
	sh.snap.Store(next)
}

// streamState is the controller's streaming ingest plane.
type streamState struct {
	podSize int
	slots   map[string]int // configured agent URL → global slot
	names   sync.Map       // agent name → global slot, bound by full frames
	shards  []*streamShard

	// Cumulative ingest counters (atomic: ingest is concurrent). The
	// round loop snapshots them and traces the per-round delta.
	frames, fulls, deltas, stale, resyncs, rejects, bytes atomic.Int64
	prev                                                  trace.HeartbeatSummary // counter values already traced
}

func newStreamState(urls []string, podSize int) *streamState {
	s := &streamState{
		podSize: podSize,
		slots:   make(map[string]int, len(urls)),
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

// route resolves a decoded frame to its global slot. Full frames bind by
// the advertised URL and (re)bind the agent name; deltas resolve by the
// name bound by an earlier full frame. A frame it cannot place gets its
// resync ack instead.
func (s *streamState) route(hb *Heartbeat) (slot int, ack HeartbeatAck, ok bool) {
	if hb.Full {
		// An unconfigured URL is refused, not bound.
		if slot, ok = s.slots[hb.URL]; ok {
			s.names.Store(hb.Agent, slot)
		}
	} else if v, bound := s.names.Load(hb.Agent); bound {
		slot, ok = v.(int), true
	}
	if !ok {
		return 0, s.ack(hb, hbResync, 0), false
	}
	return slot, HeartbeatAck{}, true
}

// applyLocked folds one routed frame into decoder li of sh and returns
// its ack, and whether it applied; the caller publishes li if so.
// Callers hold sh.mu.
func (s *streamState) applyLocked(sh *streamShard, li int, hb *Heartbeat) (HeartbeatAck, bool) {
	d := &sh.decs[li]
	v := d.apply(hb)
	return s.ack(hb, v, d.seq), v == hbApplied
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
// locks, and the round loop is never blocked.
func (c *Controller) IngestHeartbeat(frame []byte) HeartbeatAck {
	s := c.stream
	if s == nil {
		return HeartbeatAck{Reject: true}
	}
	hb, err := c.decodeFrame(frame)
	if err != nil {
		c.logf("heartbeat rejected: %v", err)
		return HeartbeatAck{Reject: true}
	}
	slot, ack, ok := s.route(hb)
	if !ok {
		return ack
	}
	sh, li := s.shardOf(slot)
	now := c.now()
	sh.mu.Lock()
	ack, applied := s.applyLocked(sh, li, hb)
	if applied {
		sh.publishLocked([]int{li}, now)
	}
	sh.mu.Unlock()
	return ack
}

// decodeFrame decodes one frame, timing the decode when observed, and
// counts it: its bytes, and whether it was a full frame, a delta, or a
// reject.
func (c *Controller) decodeFrame(frame []byte) (*Heartbeat, error) {
	s := c.stream
	s.frames.Add(1)
	s.bytes.Add(int64(len(frame)))
	var timer obs.Timer
	if c.obs != nil {
		timer = c.obs.decode.Start()
	}
	hb, err := DecodeHeartbeat(frame)
	timer.Stop()
	switch {
	case err != nil:
		s.rejects.Add(1)
	case hb.Full:
		s.fulls.Add(1)
	default:
		s.deltas.Add(1)
	}
	return hb, err
}

// IngestBatch decodes a batch of frames through the bounded worker pool,
// groups the survivors by shard, and applies each shard's frames under
// one lock acquisition with one snapshot swap. Acks are returned in
// frame order. This is the benchmarks' bulk path; a live deployment, and
// the fault campaign's loopback fabric, reach the same shards one frame
// at a time through the HTTP handler (IngestHeartbeat). Both entry
// points share decodeFrame, route, applyLocked and ack, so a frame's
// fate and its counters do not depend on the path it took.
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
	// Decode fans out: full frames carry JSON snapshots, the one
	// genuinely expensive decode.
	decoded := make([]*Heartbeat, len(frames))
	_ = parallel.ForEach(len(frames), 0, func(i int) error {
		var err error
		if decoded[i], err = c.decodeFrame(frames[i]); err != nil {
			acks[i] = HeartbeatAck{Reject: true}
		}
		return nil
	})
	// Route serially: binding order must be deterministic, and it is two
	// map operations per frame.
	type shardWork struct {
		idx []int // frame indices, in arrival order
	}
	work := make(map[int]*shardWork)
	slots := make([]int, len(frames))
	for i, hb := range decoded {
		if hb == nil {
			continue
		}
		slot, ack, ok := s.route(hb)
		if !ok {
			acks[i] = ack
			continue
		}
		slots[i] = slot
		p := slot / s.podSize
		w := work[p]
		if w == nil {
			w = &shardWork{}
			work[p] = w
		}
		w.idx = append(w.idx, i)
	}
	if len(work) == 0 {
		return acks
	}
	pods := make([]int, 0, len(work))
	for p := range work {
		pods = append(pods, p)
	}
	now := c.now()
	// Shard application fans out: shards share nothing, and each touched
	// pod pays exactly one lock round-trip and one snapshot swap.
	_ = parallel.ForEach(len(pods), 0, func(k int) error {
		p := pods[k]
		sh := s.shards[p]
		var dirty []int
		sh.mu.Lock()
		for _, i := range work[p].idx {
			li := slots[i] % s.podSize
			var applied bool
			if acks[i], applied = s.applyLocked(sh, li, decoded[i]); applied {
				dirty = append(dirty, li)
			}
		}
		if len(dirty) > 0 {
			sh.publishLocked(dirty, now)
		}
		sh.mu.Unlock()
		return nil
	})
	return acks
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
// agent's latest published view into the controller's liveness state
// (observeLocked). One atomic snapshot load per pod, zero locks, zero
// network — the polling transport's probe fan-out collapses into a read
// over frozen state. An agent whose view has not advanced since the last
// round has missed a heartbeat, exactly as a failed poll probe would
// count it. Agents are visited by slot — c.agents[i] is slot i — so the
// fold costs no lookups.
func (c *Controller) streamObserveLocked(now time.Time) (membershipChanged bool) {
	s := c.stream
	for p, sh := range s.shards {
		pv := sh.snap.Load()
		// The pod's staleness watermark: the max of (now − lastHeard) over
		// its agents, each also observed against the staleness SLO.
		podMax := 0.0
		for li := range sh.decs {
			a := c.agents[sh.base+li]
			var view *agentView
			if pv != nil {
				view = pv.views[li]
			}
			switch {
			case view == nil:
				membershipChanged = c.observeLocked(a, nil, now, "no heartbeat received") || membershipChanged
			case view.seq <= a.streamSeq:
				membershipChanged = c.observeLocked(a, nil, now, fmt.Sprintf("no heartbeat since seq %d", view.seq)) || membershipChanged
			default:
				a.streamSeq = view.seq
				membershipChanged = c.observeLocked(a, &view.stats, view.lastHeard, "") || membershipChanged
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
	return membershipChanged
}
