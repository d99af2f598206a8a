package controlplane

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pocolo/internal/machine"
)

// codecStats builds a snapshot with every delta-able field non-zero so
// round-trips cannot pass by luck of the zero value.
func codecStats() StatsResponse {
	return StatsResponse{
		Agent:             "agent-a",
		Machine:           machine.XeonE52650(),
		LC:                "xapian",
		PeakLoad:          90,
		ProvisionedPowerW: 200,
		OfferedLoad:       41.5,
		Slack:             0.31,
		P99Ms:             4.2,
		PowerW:            133.25,
		CapW:              150,
		BEThroughput:      812.5,
		AssignedBE:        "graph",
		BECandidates:      []string{"graph", "lstm"},
		LCOps:             123456,
		BEOps:             7890,
		BEOpsBy:           map[string]float64{"graph": 7890},
		ControlTicks:      4000,
		CapThrottles:      7,
		CapRestores:       5,
		PlannerHits:       3900,
		PlannerWarm:       80,
		PlannerFallbacks:  20,
		BEThrottles:       6,
		BERestores:        4,
		PlannerOn:         true,
		SimSec:            400,
	}
}

// statsJSON canonicalizes a snapshot for bit-identical comparison.
func statsJSON(t *testing.T, s *StatsResponse) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

func TestHeartbeatFullRoundTrip(t *testing.T) {
	in := Heartbeat{Agent: "agent-a", URL: "http://agent-a", Seq: 7, Epoch: 3, Full: true, Stats: codecStats()}
	frame, err := EncodeHeartbeat(&in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeHeartbeat(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !out.Full || out.Agent != "agent-a" || out.URL != "http://agent-a" || out.Seq != 7 || out.Epoch != 3 {
		t.Fatalf("header mismatch: %+v", out)
	}
	if got, want := statsJSON(t, &out.Stats), statsJSON(t, &in.Stats); got != want {
		t.Fatalf("snapshot not bit-identical:\n got %s\nwant %s", got, want)
	}
}

func TestHeartbeatDeltaRoundTrip(t *testing.T) {
	base := codecStats()
	cur := base
	cur.PowerW = 140.125
	cur.Slack = 0.27
	cur.AssignedBE = "lstm"
	cur.ControlTicks++
	mask := heartbeatMask(&base, &cur)
	if mask == 0 {
		t.Fatal("mask empty for changed snapshot")
	}
	in := Heartbeat{Agent: "agent-a", Seq: 8, Base: 7, Epoch: 4, Mask: mask, Stats: cur}
	frame, err := EncodeHeartbeat(&in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(frame) > 80 {
		t.Fatalf("4-field delta frame is %d bytes; the compactness claim is broken", len(frame))
	}
	out, err := DecodeHeartbeat(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Full || out.Base != 7 || out.Mask != mask {
		t.Fatalf("delta header mismatch: %+v", out)
	}
	got := base
	applyHeartbeatDelta(&got, out)
	if gotJSON, want := statsJSON(t, &got), statsJSON(t, &cur); gotJSON != want {
		t.Fatalf("delta apply diverged:\n got %s\nwant %s", gotJSON, want)
	}
}

// TestHeartbeatEncoderProtocol walks the sender state machine: full until
// acked, deltas against the acked base, resync demands and losses drop
// back to full frames.
func TestHeartbeatEncoderProtocol(t *testing.T) {
	enc := NewHeartbeatEncoder("agent-a", "http://agent-a")
	st := codecStats()

	decode := func(frame []byte) *Heartbeat {
		t.Helper()
		hb, err := DecodeHeartbeat(frame)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		return hb
	}

	// First frame is full; until it is acked, retries stay full.
	f1 := decode(mustEncode(t, enc, st, 1))
	if !f1.Full || f1.Seq != 1 {
		t.Fatalf("first frame not full seq 1: %+v", f1)
	}
	f2 := decode(mustEncode(t, enc, st, 1))
	if !f2.Full || f2.Seq != 2 {
		t.Fatalf("unacked retry not full seq 2: %+v", f2)
	}

	// After an ack, frames are deltas based on the acked seq.
	enc.Ack(HeartbeatAck{Agent: "agent-a", Seq: 2})
	st.PowerW++
	f3 := decode(mustEncode(t, enc, st, 1))
	if f3.Full || f3.Base != 2 || f3.Mask == 0 {
		t.Fatalf("post-ack frame not a delta on base 2: %+v", f3)
	}

	// A stale ack (not the in-flight seq) must not move the base.
	enc.Ack(HeartbeatAck{Agent: "agent-a", Seq: 1})
	st.PowerW++
	if f4 := decode(mustEncode(t, enc, st, 1)); f4.Full || f4.Base != 2 {
		t.Fatalf("stale ack moved the base: %+v", f4)
	}

	// A resync demand promotes the next frame to full.
	enc.Ack(HeartbeatAck{Agent: "agent-a", Seq: 4, Resync: true})
	if f5 := decode(mustEncode(t, enc, st, 1)); !f5.Full {
		t.Fatalf("resync demand did not promote to full: %+v", f5)
	}
	enc.Ack(HeartbeatAck{Agent: "agent-a", Seq: 5})

	// Loss (no ack at all) reported via Resync does the same.
	st.Slack++
	_ = mustEncode(t, enc, st, 1)
	enc.Resync()
	if f7 := decode(mustEncode(t, enc, st, 1)); !f7.Full {
		t.Fatalf("loss did not promote to full: %+v", f7)
	}

	// A reject ack too.
	enc.Ack(HeartbeatAck{Reject: true})
	if f8 := decode(mustEncode(t, enc, st, 1)); !f8.Full {
		t.Fatalf("reject did not promote to full: %+v", f8)
	}
}

func mustEncode(t *testing.T, enc *HeartbeatEncoder, st StatsResponse, epoch uint64) []byte {
	t.Helper()
	frame, err := enc.Encode(st, epoch)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return frame
}

// TestHeartbeatDecodeRejects feeds the decoder every class of malformed
// frame the fuzzer hunts for and demands a clean error, never a decode.
func TestHeartbeatDecodeRejects(t *testing.T) {
	goodFull, err := EncodeHeartbeat(&Heartbeat{Agent: "agent-a", URL: "http://a", Seq: 3, Epoch: 1, Full: true, Stats: StatsResponse{Agent: "agent-a"}})
	if err != nil {
		t.Fatal(err)
	}
	base := codecStats()
	cur := base
	cur.PowerW++
	goodDelta, err := EncodeHeartbeat(&Heartbeat{Agent: "agent-a", Seq: 4, Base: 3, Mask: heartbeatMask(&base, &cur), Stats: cur})
	if err != nil {
		t.Fatal(err)
	}

	mismatched, err := json.Marshal(&StatsResponse{Agent: "agent-b"})
	if err != nil {
		t.Fatal(err)
	}
	nameLie := []byte{hbMagic, hbVersion, hbFlagFull}
	nameLie = append(nameLie, 7)
	nameLie = append(nameLie, "agent-a"...)
	nameLie = append(nameLie, 3, 1) // seq, epoch
	nameLie = append(nameLie, 0)    // empty URL
	nameLie = binary.AppendUvarint(nameLie, uint64(len(mismatched)))
	nameLie = append(nameLie, mismatched...)

	nanDelta := []byte{hbMagic, hbVersion, 0}
	nanDelta = append(nanDelta, 1, 'a', 2, 1, 1) // name "a", seq 2, epoch 1, base 1
	nanDelta = binary.AppendUvarint(nanDelta, 1) // mask: power_w
	nanDelta = binary.LittleEndian.AppendUint64(nanDelta, math.Float64bits(math.NaN()))

	hugeCounter := []byte{hbMagic, hbVersion, 0}
	hugeCounter = append(hugeCounter, 1, 'a', 2, 1, 1)
	hugeCounter = binary.AppendUvarint(hugeCounter, 1<<10) // mask: control_ticks
	hugeCounter = binary.AppendUvarint(hugeCounter, math.MaxInt32+1)

	cases := []struct {
		name  string
		frame []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte{0x00}, goodFull[1:]...)},
		{"version skew", append([]byte{hbMagic, hbVersion + 1}, goodFull[2:]...)},
		{"undefined flags", append([]byte{hbMagic, hbVersion, 0x80}, goodFull[3:]...)},
		{"empty agent name", []byte{hbMagic, hbVersion, 0, 0}},
		{"truncated header", goodFull[:5]},
		{"truncated snapshot", goodFull[:len(goodFull)-3]},
		{"truncated delta fields", goodDelta[:len(goodDelta)-2]},
		{"trailing bytes", append(append([]byte{}, goodDelta...), 0xFF)},
		{"seq zero", []byte{hbMagic, hbVersion, 0, 1, 'a', 0}},
		{"base not before seq", []byte{hbMagic, hbVersion, 0, 1, 'a', 2, 1, 2, 0}},
		{"undefined mask bits", func() []byte {
			b := []byte{hbMagic, hbVersion, 0, 1, 'a', 2, 1, 1}
			return binary.AppendUvarint(b, hbMaskAll+1)
		}()},
		{"oversized name length", func() []byte {
			b := []byte{hbMagic, hbVersion, 0}
			return binary.AppendUvarint(b, maxHeartbeatName+1)
		}()},
		{"snapshot name mismatch", nameLie},
		{"non-finite float", nanDelta},
		{"counter overflow", hugeCounter},
	}
	for _, tc := range cases {
		if hb, err := DecodeHeartbeat(tc.frame); err == nil {
			t.Errorf("%s: decoded %+v, want error", tc.name, hb)
		}
	}
	// And the two seeds really are well-formed.
	if _, err := DecodeHeartbeat(goodFull); err != nil {
		t.Fatalf("good full frame rejected: %v", err)
	}
	if _, err := DecodeHeartbeat(goodDelta); err != nil {
		t.Fatalf("good delta frame rejected: %v", err)
	}
}

func TestEncodeHeartbeatRejects(t *testing.T) {
	if _, err := EncodeHeartbeat(&Heartbeat{Agent: ""}); err == nil {
		t.Error("empty agent name encoded")
	}
	if _, err := EncodeHeartbeat(&Heartbeat{Agent: strings.Repeat("a", maxHeartbeatName+1)}); err == nil {
		t.Error("oversized agent name encoded")
	}
	if _, err := EncodeHeartbeat(&Heartbeat{Agent: "a", Full: true, URL: strings.Repeat("u", maxHeartbeatURL+1)}); err == nil {
		t.Error("oversized URL encoded")
	}
	if _, err := EncodeHeartbeat(&Heartbeat{Agent: "a", Seq: 2, Base: 1, Mask: hbMaskAll + 1}); err == nil {
		t.Error("undefined mask bits encoded")
	}
}

// mutateStats flips a random subset of the delta-able fields. Floats get
// arbitrary finite values (bit-exactness matters, not plausibility).
func mutateStats(rng *rand.Rand, s *StatsResponse) {
	names := []string{"", "graph", "lstm", "pbzip", "rnn#3", strings.Repeat("x", 64)}
	for touched := 0; touched == 0; { // at least one field
		if rng.Intn(2) == 0 {
			touched++
			switch rng.Intn(9) {
			case 0:
				s.PowerW = rng.NormFloat64() * 100
			case 1:
				s.Slack = rng.NormFloat64()
			case 2:
				s.CapW = rng.NormFloat64() * 200
			case 3:
				s.OfferedLoad = rng.NormFloat64() * 50
			case 4:
				s.P99Ms = rng.NormFloat64() * 10
			case 5:
				s.BEThroughput = rng.NormFloat64() * 1000
			case 6:
				s.SimSec += rng.Float64()
			case 7:
				s.LCOps += float64(rng.Intn(1000))
			case 8:
				s.BEOps += float64(rng.Intn(1000))
			}
		}
		if rng.Intn(4) == 0 {
			touched++
			s.AssignedBE = names[rng.Intn(len(names))]
		}
		if rng.Intn(2) == 0 {
			touched++
			switch rng.Intn(8) {
			case 0:
				s.ControlTicks += rng.Intn(10)
			case 1:
				s.CapThrottles++
			case 2:
				s.CapRestores++
			case 3:
				s.PlannerHits += rng.Intn(5)
			case 4:
				s.PlannerWarm++
			case 5:
				s.PlannerFallbacks++
			case 6:
				s.BEThrottles++
			case 7:
				s.BERestores++
			}
		}
	}
}

// TestHeartbeatDeltaSequenceReconstructs is the protocol's property test:
// a random walk of snapshots streamed as deltas — with random frame loss
// forcing resyncs — leaves the receiver bit-identical to the sender after
// every applied frame.
func TestHeartbeatDeltaSequenceReconstructs(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		enc := NewHeartbeatEncoder("agent-a", "http://agent-a")
		var dec hbDecoder
		st := codecStats()
		applied, lost := 0, 0
		for step := 0; step < 200; step++ {
			mutateStats(rng, &st)
			frame, err := enc.Encode(st, uint64(step))
			if err != nil {
				t.Fatalf("seed %d step %d: encode: %v", seed, step, err)
			}
			if rng.Intn(5) == 0 { // frame lost in flight
				enc.Resync()
				lost++
				continue
			}
			hb, err := DecodeHeartbeat(frame)
			if err != nil {
				t.Fatalf("seed %d step %d: decode: %v", seed, step, err)
			}
			verdict := dec.apply(hb)
			ack := HeartbeatAck{Agent: hb.Agent, Seq: hb.Seq, Resync: verdict == hbResync}
			enc.Ack(ack)
			if verdict != hbApplied {
				continue
			}
			applied++
			if got, want := statsJSON(t, &dec.stats), statsJSON(t, &st); got != want {
				t.Fatalf("seed %d step %d: receiver diverged\n got %s\nwant %s", seed, step, got, want)
			}
		}
		if applied == 0 || lost == 0 {
			t.Fatalf("seed %d: degenerate run (applied=%d lost=%d)", seed, applied, lost)
		}
	}
}

// TestHeartbeatReplayAndReorder drives the receiver with duplicated and
// reordered frames: duplicates are stale, a delta on a stale base demands
// a resync, and state never regresses.
func TestHeartbeatReplayAndReorder(t *testing.T) {
	enc := NewHeartbeatEncoder("agent-a", "http://agent-a")
	var dec hbDecoder
	st := codecStats()

	full := mustEncode(t, enc, st, 1)
	hbFull, _ := DecodeHeartbeat(full)
	if v := dec.apply(hbFull); v != hbApplied {
		t.Fatalf("full frame verdict %v", v)
	}
	enc.Ack(HeartbeatAck{Agent: "agent-a", Seq: hbFull.Seq})

	st.PowerW = 99.5
	d1 := mustEncode(t, enc, st, 1)
	enc.Ack(HeartbeatAck{Agent: "agent-a", Seq: 2})
	st.PowerW = 101.25
	d2 := mustEncode(t, enc, st, 1)

	hb1, _ := DecodeHeartbeat(d1)
	hb2, _ := DecodeHeartbeat(d2)

	// Deliver out of order: d2's base (seq 2) has not applied yet.
	if v := dec.apply(hb2); v != hbResync {
		t.Fatalf("delta on unapplied base: verdict %v, want resync", v)
	}
	if v := dec.apply(hb1); v != hbApplied {
		t.Fatalf("in-order delta: verdict %v", v)
	}
	if dec.stats.PowerW != 99.5 {
		t.Fatalf("PowerW = %v after d1", dec.stats.PowerW)
	}
	// Replay the full frame: a seq-regressing full is indistinguishable
	// from a restarted sender, so it draws a resync demand — but state
	// must not move. A replayed delta is provably stale.
	if v := dec.apply(hbFull); v != hbResync {
		t.Fatalf("replayed full frame verdict %v, want resync", v)
	}
	if v := dec.apply(hb1); v != hbStale {
		t.Fatalf("replayed delta verdict %v, want stale", v)
	}
	if dec.stats.PowerW != 99.5 {
		t.Fatalf("replay moved state: PowerW = %v", dec.stats.PowerW)
	}
	// Now d2 applies cleanly on its true base.
	if v := dec.apply(hb2); v != hbApplied || dec.stats.PowerW != 101.25 {
		t.Fatalf("redelivered d2: verdict %v PowerW %v", v, dec.stats.PowerW)
	}
}

// TestHeartbeatSenderRestart drives the restart handshake: a fresh
// encoder (same agent, sequence numbers back at 1) meets a receiver
// holding the old incarnation's watermark. The first full frame draws a
// resync ack carrying the watermark, the encoder adopts it, and the
// second full frame applies — convergence in two heartbeats with no
// state rollback in between.
func TestHeartbeatSenderRestart(t *testing.T) {
	dec := &hbDecoder{}
	old := NewHeartbeatEncoder("agent-a", "http://agent-a:7001")
	st := codecStats()
	for i := 0; i < 5; i++ {
		st.PowerW = 100 + float64(i)
		hb, _ := DecodeHeartbeat(mustEncode(t, old, st, 1))
		if v := dec.apply(hb); v != hbApplied {
			t.Fatalf("frame %d verdict %v", i, v)
		}
		old.Ack(HeartbeatAck{Agent: "agent-a", Seq: hb.Seq})
	}
	if dec.seq != 5 {
		t.Fatalf("watermark %d, want 5", dec.seq)
	}

	fresh := NewHeartbeatEncoder("agent-a", "http://agent-a:7001")
	st.PowerW = 250
	hb, _ := DecodeHeartbeat(mustEncode(t, fresh, st, 2))
	if v := dec.apply(hb); v != hbResync {
		t.Fatalf("restarted sender's first full: verdict %v, want resync", v)
	}
	if dec.stats.PowerW == 250 {
		t.Fatal("seq-regressing full frame moved state")
	}
	fresh.Ack(HeartbeatAck{Agent: "agent-a", Seq: resyncSeq(hb.Seq, dec.seq), Resync: true})

	hb, _ = DecodeHeartbeat(mustEncode(t, fresh, st, 2))
	if hb.Seq <= 5 {
		t.Fatalf("encoder did not adopt the watermark: seq %d", hb.Seq)
	}
	if v := dec.apply(hb); v != hbApplied || dec.stats.PowerW != 250 {
		t.Fatalf("post-adoption full: verdict %v PowerW %v", v, dec.stats.PowerW)
	}
}

// TestHeartbeatDeltaSize pins the compactness claim: a steady-state
// delta (a handful of moved floats and counters) stays within tens of
// bytes while the equivalent full snapshot is kilobytes.
func TestHeartbeatDeltaSize(t *testing.T) {
	enc := NewHeartbeatEncoder("agent-0042", "http://10.0.0.42:7001")
	st := codecStats()
	full := mustEncode(t, enc, st, 1)
	enc.Ack(HeartbeatAck{Agent: "agent-0042", Seq: 1})
	st.PowerW += 1.5
	st.Slack -= 0.01
	st.SimSec++
	st.LCOps += 40
	st.ControlTicks += 10
	st.PlannerHits += 10
	delta := mustEncode(t, enc, st, 1)
	if len(delta) >= 100 {
		t.Fatalf("steady-state delta is %d bytes, want < 100", len(delta))
	}
	// Compression narrows the full/delta gap (the v1 raw frame was
	// >10x), but a delta must still be several times cheaper than even a
	// compressed resync.
	if len(full) < 5*len(delta) {
		t.Fatalf("full frame %dB not ≥5x delta %dB; delta encoding buys too little", len(full), len(delta))
	}
	if bytes.Equal(full[:3], delta[:3]) {
		t.Fatalf("full and delta share flag bytes: % x vs % x", full[:3], delta[:3])
	}
}

// encodeHeartbeatV1Full hand-builds a version-1 full frame (raw JSON
// snapshot, no compression), which the decoder rejects as an unknown
// version.
func encodeHeartbeatV1Full(tb testing.TB, hb *Heartbeat) []byte {
	tb.Helper()
	blob, err := json.Marshal(&hb.Stats)
	if err != nil {
		tb.Fatal(err)
	}
	b := []byte{hbMagic, 1, hbFlagFull}
	b = binary.AppendUvarint(b, uint64(len(hb.Agent)))
	b = append(b, hb.Agent...)
	b = binary.AppendUvarint(b, hb.Seq)
	b = binary.AppendUvarint(b, hb.Epoch)
	b = binary.AppendUvarint(b, uint64(len(hb.URL)))
	b = append(b, hb.URL...)
	b = binary.AppendUvarint(b, uint64(len(blob)))
	return append(b, blob...)
}

func TestHeartbeatCompressedFullRoundTrip(t *testing.T) {
	hb := &Heartbeat{
		Agent: "agent-a", URL: "http://agent-a:7001", Seq: 9, Epoch: 3,
		Full: true, Stats: codecStats(),
	}
	frame, err := EncodeHeartbeat(hb)
	if err != nil {
		t.Fatal(err)
	}
	if frame[1] != hbVersion {
		t.Fatalf("encoder wrote version %d, want %d", frame[1], hbVersion)
	}
	raw := encodeHeartbeatV1Full(t, hb)
	if len(frame) >= len(raw) {
		t.Errorf("compressed full frame %dB not smaller than raw v1 frame %dB", len(frame), len(raw))
	}
	got, err := DecodeHeartbeat(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Agent != hb.Agent || got.URL != hb.URL || got.Seq != hb.Seq || got.Epoch != hb.Epoch || !got.Full {
		t.Fatalf("header fields mangled: %+v", got)
	}
	if statsJSON(t, &got.Stats) != statsJSON(t, &hb.Stats) {
		t.Fatal("snapshot not bit-identical through compressed round-trip")
	}
}

func TestHeartbeatCompressedRejects(t *testing.T) {
	hb := &Heartbeat{
		Agent: "agent-a", URL: "http://agent-a:7001", Seq: 5, Epoch: 2,
		Full: true, Stats: codecStats(),
	}
	frame, err := EncodeHeartbeat(hb)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), frame...))
	}
	cases := map[string][]byte{
		"unknown version 3": mutate(func(b []byte) []byte { b[1] = 3; return b }),
		"corrupt compressed stream": mutate(func(b []byte) []byte {
			b[len(b)-1] ^= 0xFF
			return b
		}),
		"truncated compressed stream": mutate(func(b []byte) []byte { return b[:len(b)-4] }),
	}
	for name, f := range cases {
		if _, err := DecodeHeartbeat(f); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// A raw-length lie: re-point the declared inflated size one byte
	// short. The frame layout past the URL is rawLen, compLen, comp;
	// rebuild with rawLen-1.
	blob, err := json.Marshal(&hb.Stats)
	if err != nil {
		t.Fatal(err)
	}
	var comp bytes.Buffer
	zw, _ := flate.NewWriter(&comp, flate.BestSpeed)
	zw.Write(blob)
	zw.Close()
	lie := []byte{hbMagic, hbVersion, hbFlagFull}
	lie = binary.AppendUvarint(lie, uint64(len(hb.Agent)))
	lie = append(lie, hb.Agent...)
	lie = binary.AppendUvarint(lie, hb.Seq)
	lie = binary.AppendUvarint(lie, hb.Epoch)
	lie = binary.AppendUvarint(lie, uint64(len(hb.URL)))
	lie = append(lie, hb.URL...)
	lie = binary.AppendUvarint(lie, uint64(len(blob)-1))
	lie = binary.AppendUvarint(lie, uint64(comp.Len()))
	lie = append(lie, comp.Bytes()...)
	if _, err := DecodeHeartbeat(lie); err == nil {
		t.Error("raw-length lie decoded without error")
	}
	// Trailing garbage inside the compressed region (after the DEFLATE
	// final block) must be rejected even though the stream inflates.
	pad := []byte{hbMagic, hbVersion, hbFlagFull}
	pad = binary.AppendUvarint(pad, uint64(len(hb.Agent)))
	pad = append(pad, hb.Agent...)
	pad = binary.AppendUvarint(pad, hb.Seq)
	pad = binary.AppendUvarint(pad, hb.Epoch)
	pad = binary.AppendUvarint(pad, uint64(len(hb.URL)))
	pad = append(pad, hb.URL...)
	pad = binary.AppendUvarint(pad, uint64(len(blob)))
	pad = binary.AppendUvarint(pad, uint64(comp.Len()+2))
	pad = append(pad, comp.Bytes()...)
	pad = append(pad, 0xDE, 0xAD)
	if _, err := DecodeHeartbeat(pad); err == nil {
		t.Error("compressed trailing garbage decoded without error")
	}
}
