package controlplane

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
)

// This file is the streaming transport's wire format: a compact,
// versioned binary heartbeat frame an agent pushes to the controller
// instead of being polled. Two frame shapes share one header:
//
//	magic(1) version(1) flags(1)
//	agent name: uvarint length + bytes
//	seq:        uvarint (per-agent, strictly increasing)
//	epoch:      uvarint (bumped on every assignment change the agent applies)
//
// A FULL frame (flags&hbFlagFull) then carries the agent's advertised
// callback URL and its complete StatsResponse as a length-prefixed JSON
// blob — the resync point that (re)establishes shared state after
// connect, loss, or version skew. A DELTA frame instead carries the seq
// it applies on top of, a field mask, and only the masked fields: floats
// as 8-byte little-endian IEEE-754 bits (bit-exact reconstruction),
// counters as uvarints, strings length-prefixed. Steady-state deltas are
// ~20–60 bytes against the multi-kilobyte JSON snapshot a poll fetches.
//
// Loss handling is sender-driven and receiver-checked: the sender treats
// a missing or resync-flagged ack as loss and promotes its next frame to
// a full resync; the receiver independently refuses a delta whose base
// seq is not the last seq it applied and demands a resync in the ack, so
// a field-mask lie or reordered frame can corrupt nothing.

const (
	hbMagic = 0xB8
	// hbVersion is the one version the encoder writes and the decoder
	// accepts. v2 DEFLATE-compresses a full frame's snapshot blob (raw
	// length, then compressed length and bytes) — at fleet scale the
	// resync storm after a controller restart is full frames from every
	// agent at once, and the JSON snapshot is the frame.
	hbVersion  = 2
	hbFlagFull = 0x01

	maxHeartbeatName = 256
	maxHeartbeatURL  = 512
	maxHeartbeatBlob = 1 << 20
)

// Heartbeat is one decoded frame. For full frames Stats is the complete
// snapshot; for delta frames only the fields selected by Mask are set.
type Heartbeat struct {
	Agent string
	// URL is the agent's advertised callback base URL (full frames only):
	// the controller binds the agent name to its configured slot by it.
	URL   string
	Seq   uint64
	Base  uint64 // delta frames: the seq this delta applies on top of
	Epoch uint64
	Full  bool
	Mask  uint64
	Stats StatsResponse
}

// HeartbeatAck is the controller's reply to one ingested frame. Resync
// asks the sender to promote its next frame to a full snapshot (the
// receiver lost sync: unknown agent, unexpected base, or restart).
// Reject means the frame itself was refused (malformed or misaddressed)
// and carries no seq progress.
type HeartbeatAck struct {
	Agent  string `json:"agent"`
	Seq    uint64 `json:"seq"`
	Resync bool   `json:"resync,omitempty"`
	Reject bool   `json:"reject,omitempty"`
}

// hbField wires one StatsResponse field into the delta mask. Exactly
// one accessor is set, and it fixes the field's wire form: f a float as
// 8-byte little-endian IEEE-754 bits, n a counter as a uvarint, s a
// length-prefixed string. Diffing, encoding, decoding and applying all
// go through the one accessor, which keeps them structurally in sync,
// and decoding hands the frame reader to no function value, so a
// delta's reader stays off the heap.
type hbField struct {
	name string
	f    func(*StatsResponse) *float64
	n    func(*StatsResponse) *int
	s    func(*StatsResponse) *string
}

// eq reports whether a and b agree on the field.
func (fd *hbField) eq(a, b *StatsResponse) bool {
	switch {
	case fd.f != nil:
		return *fd.f(a) == *fd.f(b)
	case fd.n != nil:
		return *fd.n(a) == *fd.n(b)
	}
	return *fd.s(a) == *fd.s(b)
}

// enc appends s's value of the field to b.
func (fd *hbField) enc(b []byte, s *StatsResponse) []byte {
	switch {
	case fd.f != nil:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(*fd.f(s)))
	case fd.n != nil:
		return binary.AppendUvarint(b, uint64(*fd.n(s)))
	}
	v := *fd.s(s)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// dec reads the field's value from r into s.
func (fd *hbField) dec(r *frameReader, s *StatsResponse) error {
	switch {
	case fd.f != nil:
		v, err := r.float(fd.name)
		if err != nil {
			return err
		}
		*fd.f(s) = v
	case fd.n != nil:
		v, err := r.uvarint()
		if err != nil {
			return fmt.Errorf("field %s: %w", fd.name, err)
		}
		if v > math.MaxInt32 {
			return fmt.Errorf("field %s: counter %d out of range", fd.name, v)
		}
		*fd.n(s) = int(v)
	default:
		v, err := r.str(maxHeartbeatName)
		if err != nil {
			return fmt.Errorf("field %s: %w", fd.name, err)
		}
		*fd.s(s) = v
	}
	return nil
}

// cp copies the field from src to dst.
func (fd *hbField) cp(dst, src *StatsResponse) {
	switch {
	case fd.f != nil:
		*fd.f(dst) = *fd.f(src)
	case fd.n != nil:
		*fd.n(dst) = *fd.n(src)
	default:
		*fd.s(dst) = *fd.s(src)
	}
}

// hbFields is the delta field table; a field's mask bit is its index.
// Everything that moves tick to tick is here, so delta-fed controller
// state matches a poll except for the deep observability maps and
// fitted models, which refresh only on full frames (they are static or
// display-only: BEOpsBy, the model pointers, candidate lists).
// Appending a field is a compatible change (old receivers reject the
// unknown mask bit and demand a resync); reordering is not.
var hbFields = []hbField{
	{name: "power_w", f: func(s *StatsResponse) *float64 { return &s.PowerW }},
	{name: "slack", f: func(s *StatsResponse) *float64 { return &s.Slack }},
	{name: "cap_w", f: func(s *StatsResponse) *float64 { return &s.CapW }},
	{name: "offered_load", f: func(s *StatsResponse) *float64 { return &s.OfferedLoad }},
	{name: "p99_ms", f: func(s *StatsResponse) *float64 { return &s.P99Ms }},
	{name: "be_throughput", f: func(s *StatsResponse) *float64 { return &s.BEThroughput }},
	{name: "sim_sec", f: func(s *StatsResponse) *float64 { return &s.SimSec }},
	{name: "lc_ops", f: func(s *StatsResponse) *float64 { return &s.LCOps }},
	{name: "be_ops", f: func(s *StatsResponse) *float64 { return &s.BEOps }},
	{name: "assigned_be", s: func(s *StatsResponse) *string { return &s.AssignedBE }},
	{name: "control_ticks", n: func(s *StatsResponse) *int { return &s.ControlTicks }},
	{name: "cap_throttles", n: func(s *StatsResponse) *int { return &s.CapThrottles }},
	{name: "cap_restores", n: func(s *StatsResponse) *int { return &s.CapRestores }},
	{name: "planner_hits", n: func(s *StatsResponse) *int { return &s.PlannerHits }},
	{name: "planner_warm", n: func(s *StatsResponse) *int { return &s.PlannerWarm }},
	{name: "planner_fallbacks", n: func(s *StatsResponse) *int { return &s.PlannerFallbacks }},
	{name: "be_throttles", n: func(s *StatsResponse) *int { return &s.BEThrottles }},
	{name: "be_restores", n: func(s *StatsResponse) *int { return &s.BERestores }},
}

// hbMaskAll is every defined mask bit; frames carrying others are
// rejected as version skew.
var hbMaskAll = uint64(1)<<len(hbFields) - 1

// heartbeatMask diffs two snapshots into the delta mask.
func heartbeatMask(base, cur *StatsResponse) uint64 {
	var mask uint64
	for i := range hbFields {
		if !hbFields[i].eq(base, cur) {
			mask |= 1 << i
		}
	}
	return mask
}

// applyHeartbeatDelta copies a decoded delta's masked fields onto dst.
func applyHeartbeatDelta(dst *StatsResponse, hb *Heartbeat) {
	for i := range hbFields {
		if hb.Mask&(1<<i) != 0 {
			hbFields[i].cp(dst, &hb.Stats)
		}
	}
}

// EncodeHeartbeat serializes one frame. Callers normally go through a
// HeartbeatEncoder, which owns the seq/base bookkeeping.
func EncodeHeartbeat(hb *Heartbeat) ([]byte, error) {
	if hb.Agent == "" || len(hb.Agent) > maxHeartbeatName {
		return nil, fmt.Errorf("controlplane: heartbeat agent name length %d outside [1, %d]", len(hb.Agent), maxHeartbeatName)
	}
	if hb.Full {
		if len(hb.URL) > maxHeartbeatURL {
			return nil, fmt.Errorf("controlplane: heartbeat URL length %d exceeds %d", len(hb.URL), maxHeartbeatURL)
		}
		blob, err := json.Marshal(&hb.Stats)
		if err != nil {
			return nil, fmt.Errorf("controlplane: encoding heartbeat snapshot: %w", err)
		}
		if len(blob) > maxHeartbeatBlob {
			return nil, fmt.Errorf("controlplane: heartbeat snapshot %d bytes exceeds %d", len(blob), maxHeartbeatBlob)
		}
		d := deflaters.Get().(*deflater)
		defer deflaters.Put(d)
		d.comp.Reset()
		d.zw.Reset(&d.comp)
		if _, err := d.zw.Write(blob); err != nil {
			return nil, fmt.Errorf("controlplane: compressing heartbeat snapshot: %w", err)
		}
		if err := d.zw.Close(); err != nil {
			return nil, fmt.Errorf("controlplane: compressing heartbeat snapshot: %w", err)
		}
		comp := d.comp.Bytes()
		// The frame is allocated once and copies comp out of the pooled
		// buffer. Its six uvarints (agent length, seq, epoch, URL length,
		// raw length, compressed length) each fit in MaxVarintLen64 bytes.
		b := make([]byte, 0, 3+6*binary.MaxVarintLen64+len(hb.Agent)+len(hb.URL)+len(comp))
		b = appendHeartbeatHeader(b, hb, hbFlagFull)
		b = binary.AppendUvarint(b, uint64(len(hb.URL)))
		b = append(b, hb.URL...)
		b = binary.AppendUvarint(b, uint64(len(blob)))
		b = binary.AppendUvarint(b, uint64(len(comp)))
		return append(b, comp...), nil
	}
	if hb.Mask&^hbMaskAll != 0 {
		return nil, fmt.Errorf("controlplane: heartbeat mask %#x has undefined bits", hb.Mask)
	}
	b := appendHeartbeatHeader(make([]byte, 0, 64), hb, 0)
	b = binary.AppendUvarint(b, hb.Base)
	b = binary.AppendUvarint(b, hb.Mask)
	for i := range hbFields {
		if hb.Mask&(1<<i) != 0 {
			b = hbFields[i].enc(b, &hb.Stats)
		}
	}
	return b, nil
}

// appendHeartbeatHeader appends the header both frame shapes share.
func appendHeartbeatHeader(b []byte, hb *Heartbeat, flags byte) []byte {
	b = append(b, hbMagic, hbVersion, flags)
	b = binary.AppendUvarint(b, uint64(len(hb.Agent)))
	b = append(b, hb.Agent...)
	b = binary.AppendUvarint(b, hb.Seq)
	return binary.AppendUvarint(b, hb.Epoch)
}

// Full frames reset DEFLATE state taken from these pools rather than
// building it per frame: a fresh writer allocates ~1.2 MB of compressor
// tables and a fresh inflater ~47 KB of tables and window, and in a
// resync storm (every agent sending a full frame at once, after
// discovery, a controller restart or a partition) both ends would pay
// that per frame. flate.Writer.Reset is documented to equal a fresh
// NewWriter, so the wire bytes do not depend on the pool.
var (
	deflaters = sync.Pool{New: func() any {
		d := new(deflater)
		// BestSpeed is a valid level, so NewWriter cannot fail.
		d.zw, _ = flate.NewWriter(&d.comp, flate.BestSpeed)
		return d
	}}
	inflaters = sync.Pool{New: func() any {
		z := new(inflater)
		z.zr = flate.NewReader(&z.br)
		return z
	}}
)

// deflater is one full frame's compression state: a BestSpeed writer
// and the buffer it compresses into.
type deflater struct {
	zw   *flate.Writer
	comp bytes.Buffer
}

// inflater is one full frame's decompression state: a flate reader
// over br and the buffer it inflates into.
type inflater struct {
	br  bytes.Reader
	zr  io.ReadCloser // from flate.NewReader, so also a flate.Resetter
	raw bytes.Buffer
}

// release returns z to its pool with its reader reset onto an empty
// slice, so a pool entry never pins a frame.
func (z *inflater) release() {
	z.br.Reset(nil)
	inflaters.Put(z)
}

// inflateSnapshot decodes a v2 full frame's compressed snapshot into dst
// through pooled inflater state. The header declares that comp inflates
// to n bytes: the stream must produce exactly n bytes and consume
// exactly comp — a frame lying about either is rejected, not truncated.
// Reading stops at n+1 bytes, into a buffer that grows only with what
// the stream produced, so the declared length never sizes an allocation
// on its own.
func inflateSnapshot(comp []byte, n uint64, dst *StatsResponse) error {
	z := inflaters.Get().(*inflater)
	defer z.release()
	z.br.Reset(comp)
	// A flate reader's Reset cannot fail.
	_ = z.zr.(flate.Resetter).Reset(&z.br, nil)
	z.raw.Reset()
	_, err := z.raw.ReadFrom(io.LimitReader(z.zr, int64(n)+1))
	if cerr := z.zr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("controlplane: heartbeat snapshot inflate: %w", err)
	}
	if uint64(z.raw.Len()) != n {
		return fmt.Errorf("controlplane: heartbeat snapshot inflates to %d bytes, header says %d", z.raw.Len(), n)
	}
	if z.br.Len() != 0 {
		return fmt.Errorf("controlplane: heartbeat compressed snapshot has %d trailing bytes", z.br.Len())
	}
	// encoding/json copies what it keeps, so dst never aliases z.raw.
	if err := json.Unmarshal(z.raw.Bytes(), dst); err != nil {
		return fmt.Errorf("controlplane: heartbeat snapshot: %w", err)
	}
	return nil
}

// DecodeHeartbeat parses and validates one frame. Every length is
// bounded, every float must be finite, trailing bytes are an error, and
// a full frame's embedded snapshot must agree with the header's agent
// name — a frame that decodes is internally consistent.
func DecodeHeartbeat(frame []byte) (*Heartbeat, error) {
	return decodeHeartbeat(frame, inflateSnapshot)
}

// decodeHeartbeat is DecodeHeartbeat with the v2 snapshot decode as a
// parameter, so tests can hold the pooled path to a fresh inflater.
func decodeHeartbeat(frame []byte, inflate func(comp []byte, n uint64, dst *StatsResponse) error) (*Heartbeat, error) {
	hb := new(Heartbeat)
	name, err := decodeHeartbeatInto(frame, hb, inflate)
	if err != nil {
		return nil, err
	}
	hb.Agent = string(name)
	return hb, nil
}

// decodeHeartbeatInto is decodeHeartbeat into hb, which must be zero: a
// full frame's snapshot is decoded in place, and JSON merges into any
// map it finds there. It leaves hb.Agent unset and returns the agent name
// as framed, aliasing frame, so a receiver can resolve a delta's name to
// a string it already holds instead of copying it per frame. A delta
// decodes without allocating.
func decodeHeartbeatInto(frame []byte, hb *Heartbeat, inflate func(comp []byte, n uint64, dst *StatsResponse) error) (name []byte, err error) {
	r := frameReader{b: frame}
	magic, err := r.byte("magic")
	if err != nil {
		return nil, err
	}
	if magic != hbMagic {
		return nil, fmt.Errorf("controlplane: heartbeat magic %#x, want %#x", magic, hbMagic)
	}
	version, err := r.byte("version")
	if err != nil {
		return nil, err
	}
	if version != hbVersion {
		return nil, fmt.Errorf("controlplane: heartbeat version %d, want %d", version, hbVersion)
	}
	flags, err := r.byte("flags")
	if err != nil {
		return nil, err
	}
	if flags&^byte(hbFlagFull) != 0 {
		return nil, fmt.Errorf("controlplane: heartbeat flags %#x have undefined bits", flags)
	}
	hb.Full = flags&hbFlagFull != 0
	if name, err = r.rawStr(maxHeartbeatName); err != nil {
		return nil, fmt.Errorf("controlplane: heartbeat agent: %w", err)
	}
	if len(name) == 0 {
		return nil, fmt.Errorf("controlplane: heartbeat with empty agent name")
	}
	if hb.Seq, err = r.uvarint(); err != nil {
		return nil, fmt.Errorf("controlplane: heartbeat seq: %w", err)
	}
	if hb.Seq == 0 {
		return nil, fmt.Errorf("controlplane: heartbeat seq 0")
	}
	if hb.Epoch, err = r.uvarint(); err != nil {
		return nil, fmt.Errorf("controlplane: heartbeat epoch: %w", err)
	}
	if hb.Full {
		if hb.URL, err = r.str(maxHeartbeatURL); err != nil {
			return nil, fmt.Errorf("controlplane: heartbeat URL: %w", err)
		}
		n, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("controlplane: heartbeat snapshot length: %w", err)
		}
		if n > maxHeartbeatBlob {
			return nil, fmt.Errorf("controlplane: heartbeat snapshot %d bytes exceeds %d", n, maxHeartbeatBlob)
		}
		cn, err := r.uvarint()
		if err != nil {
			return nil, fmt.Errorf("controlplane: heartbeat compressed length: %w", err)
		}
		if cn > maxHeartbeatBlob {
			return nil, fmt.Errorf("controlplane: heartbeat compressed snapshot %d bytes exceeds %d", cn, maxHeartbeatBlob)
		}
		comp, err := r.bytes(int(cn), "compressed snapshot")
		if err != nil {
			return nil, err
		}
		if err := inflate(comp, n, &hb.Stats); err != nil {
			return nil, err
		}
		if hb.Stats.Agent != string(name) {
			return nil, fmt.Errorf("controlplane: heartbeat header names %q but snapshot names %q", name, hb.Stats.Agent)
		}
	} else {
		if hb.Base, err = r.uvarint(); err != nil {
			return nil, fmt.Errorf("controlplane: heartbeat base: %w", err)
		}
		if hb.Base >= hb.Seq {
			return nil, fmt.Errorf("controlplane: heartbeat base %d not before seq %d", hb.Base, hb.Seq)
		}
		if hb.Mask, err = r.uvarint(); err != nil {
			return nil, fmt.Errorf("controlplane: heartbeat mask: %w", err)
		}
		if hb.Mask&^hbMaskAll != 0 {
			return nil, fmt.Errorf("controlplane: heartbeat mask %#x has undefined bits", hb.Mask)
		}
		for i := range hbFields {
			if hb.Mask&(1<<i) != 0 {
				if err := hbFields[i].dec(&r, &hb.Stats); err != nil {
					return nil, fmt.Errorf("controlplane: heartbeat %w", err)
				}
			}
		}
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("controlplane: heartbeat has %d trailing bytes", len(r.b)-r.off)
	}
	return name, nil
}

// HeartbeatEncoder is the sender half of the delta protocol: it owns the
// per-agent seq counter and the last acknowledged snapshot deltas are
// computed against. Not safe for concurrent use; each agent publisher
// owns one.
type HeartbeatEncoder struct {
	agent string
	url   string

	seq        uint64
	base       StatsResponse // last acked snapshot (valid when synced)
	baseSeq    uint64        // seq the acked base snapshot carried
	synced     bool
	pending    StatsResponse // snapshot sent as seq pendingSeq, awaiting ack
	pendingSeq uint64
	hasPending bool
}

// NewHeartbeatEncoder builds an encoder for one agent. url is the
// agent's advertised callback base URL, carried in every full frame so
// the controller can bind the name to its configured slot.
func NewHeartbeatEncoder(agent, url string) *HeartbeatEncoder {
	return &HeartbeatEncoder{agent: agent, url: url}
}

// Encode frames the given snapshot: a full resync frame when the
// encoder has no acknowledged base (first frame, after loss, or after a
// resync demand), otherwise a delta of only the fields that changed
// since the last acknowledged snapshot. The caller must deliver the
// frame and report the outcome via Ack (on a reply) or Resync (on
// loss); encoding alone never advances the delta base.
func (e *HeartbeatEncoder) Encode(stats StatsResponse, epoch uint64) ([]byte, error) {
	e.seq++
	hb := Heartbeat{Agent: e.agent, URL: e.url, Seq: e.seq, Epoch: epoch}
	if !e.synced {
		hb.Full = true
		hb.Stats = stats
	} else {
		// Deltas are always computed against the last acknowledged
		// snapshot, so the base is that snapshot's seq.
		hb.Base = e.baseSeq
		hb.Mask = heartbeatMask(&e.base, &stats)
		hb.Stats = stats
	}
	frame, err := EncodeHeartbeat(&hb)
	if err != nil {
		e.seq--
		return nil, err
	}
	e.pending = stats
	e.pendingSeq = e.seq
	e.hasPending = true
	return frame, nil
}

// Ack feeds a delivery acknowledgement back. A resync-flagged or
// rejected ack drops the base so the next frame is a full snapshot; an
// ack matching the in-flight frame promotes that frame's snapshot to
// the new delta base. A resync ack whose sequence is ahead of the
// encoder's is a receiver that already saw a previous incarnation of
// this sender (the encoder restarted and began counting from 1 again);
// the encoder adopts the watermark so its next full frame clears it.
func (e *HeartbeatEncoder) Ack(ack HeartbeatAck) {
	if ack.Resync || ack.Reject {
		if ack.Resync && ack.Seq > e.seq {
			e.seq = ack.Seq
		}
		e.synced = false
		e.hasPending = false
		return
	}
	if e.hasPending && ack.Seq == e.pendingSeq {
		e.base = e.pending
		e.baseSeq = e.pendingSeq
		e.synced = true
		e.hasPending = false
	}
}

// Resync drops the acknowledged base: the next frame will be a full
// snapshot. Senders call it when a frame goes unacknowledged (timeout,
// transport error, partition) — the receiver may or may not have
// applied the lost frame, so the shared base is unknown.
func (e *HeartbeatEncoder) Resync() {
	e.synced = false
	e.hasPending = false
}

// frameReader is a bounds-checked cursor over one frame.
type frameReader struct {
	b   []byte
	off int
}

func (r *frameReader) byte(what string) (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("controlplane: heartbeat truncated at %s", what)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated or overlong uvarint")
	}
	r.off += n
	return v, nil
}

func (r *frameReader) bytes(n int, what string) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, fmt.Errorf("controlplane: heartbeat truncated in %s", what)
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v, nil
}

func (r *frameReader) str(max int) (string, error) {
	b, err := r.rawStr(max)
	return string(b), err
}

// rawStr reads a length-prefixed string of at most max bytes without
// copying it: the result aliases the frame.
func (r *frameReader) rawStr(max int) ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(max) {
		return nil, fmt.Errorf("string length %d exceeds %d", n, max)
	}
	b, err := r.bytes(int(n), "string")
	if err != nil {
		return nil, fmt.Errorf("truncated string")
	}
	return b, nil
}

func (r *frameReader) float(name string) (float64, error) {
	if r.off+8 > len(r.b) {
		return 0, fmt.Errorf("field %s: truncated float", name)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("field %s: non-finite value", name)
	}
	return v, nil
}
