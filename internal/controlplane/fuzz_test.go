package controlplane

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"

	"pocolo/internal/obs"
)

// fuzzSeedFrames are the fuzzer's starting population, mirrored into the
// committed corpus under testdata/fuzz/FuzzDecodeHeartbeat: well-formed
// full and delta frames plus one representative of each malformation
// class (truncation, version skew, flag/mask lies, trailing garbage), so
// even a short smoke run explores both sides of every validation branch.
func fuzzSeedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	full, err := EncodeHeartbeat(&Heartbeat{
		Agent: "agent-a", URL: "http://agent-a:7001", Seq: 1, Epoch: 1,
		Full: true, Stats: codecStats(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	base := codecStats()
	cur := base
	cur.PowerW += 2.5
	cur.AssignedBE = "lstm"
	cur.ControlTicks += 3
	delta, err := EncodeHeartbeat(&Heartbeat{
		Agent: "agent-a", Seq: 2, Base: 1, Epoch: 1,
		Mask: heartbeatMask(&base, &cur), Stats: cur,
	})
	if err != nil {
		tb.Fatal(err)
	}
	allMask, err := EncodeHeartbeat(&Heartbeat{
		Agent: "agent-a", Seq: 3, Base: 2, Epoch: 2, Mask: hbMaskAll, Stats: cur,
	})
	if err != nil {
		tb.Fatal(err)
	}
	maskLie := []byte{hbMagic, hbVersion, 0, 1, 'a', 2, 1, 1}
	maskLie = binary.AppendUvarint(maskLie, hbMaskAll) // claims every field...
	maskLie = append(maskLie, 0x42)                    // ...delivers one byte
	fullV1 := encodeHeartbeatV1Full(tb, &Heartbeat{
		Agent: "agent-a", URL: "http://agent-a:7001", Seq: 1, Epoch: 1,
		Full: true, Stats: codecStats(),
	})
	corruptComp := append([]byte{}, full...)
	corruptComp[len(corruptComp)-1] ^= 0xFF // damage the DEFLATE final block
	return [][]byte{
		full, // v2: snapshot blob compressed
		delta,
		allMask,
		fullV1,               // v1 downgrade: raw snapshot blob
		full[:len(full)/2],   // truncated mid-snapshot
		delta[:len(delta)-1], // truncated mid-field
		corruptComp,
		append([]byte{hbMagic, hbVersion + 1}, full[2:]...),   // version skew
		append([]byte{hbMagic, hbVersion, 0xFF}, full[3:]...), // undefined flags
		maskLie,
		append(append([]byte{}, delta...), 0xDE, 0xAD), // trailing bytes
		{hbMagic, hbVersion, 0, 1, 'a', 0},             // seq zero
		{hbMagic, hbVersion, 0, 1, 'a', 1, 1, 5, 0},    // base ≥ seq
	}
}

// labelFuzzSeeds start FuzzExpositionLabels from the values
// TestExpositionLabelEscaping covers: each character the exposition
// format treats specially, all of them at once, and the empty value.
var labelFuzzSeeds = []string{`a"b`, `a\b`, "a\nb", "a\tb", "aéb", "node-\"1\"\\\n\ttail é", ""}

// ingestFuzzSeeds start FuzzIngestEntryPoints from the frame sequences
// TestIngestEntryPointsAgree covers.
func ingestFuzzSeeds(tb testing.TB) [][][]byte {
	return [][][]byte{ingestScenarioFrames(tb), fuzzSeedFrames(tb)}
}

// pooledDecodeFuzzSeeds start FuzzPooledHeartbeatDecode from
// resyncDecodeFrames, with a good full frame again after the bad ones,
// and from fuzzSeedFrames.
func pooledDecodeFuzzSeeds(tb testing.TB) [][][]byte {
	tb.Helper()
	var resync [][]byte
	for _, f := range resyncDecodeFrames(tb, &Heartbeat{
		Agent: "agent-a", URL: "http://agent-a:7001", Seq: 1, Epoch: 1,
		Full: true, Stats: codecStats(),
	}) {
		resync = append(resync, f.frame)
	}
	return [][][]byte{append(resync, resync[0]), fuzzSeedFrames(tb)}
}

// TestFuzzCorpusCommitted keeps the committed corpora in lockstep with
// fuzzSeedFrames, statsFuzzSeeds, labelFuzzSeeds, capFuzzSeeds,
// ingestFuzzSeeds, pooledDecodeFuzzSeeds and capBodyFuzzSeeds: every
// seed must exist on disk in Go corpus format so `go test -fuzz` and
// plain `go test` start from the same population. Regenerate after
// changing the seeds with POCOLO_WRITE_CORPUS=1.
func TestFuzzCorpusCommitted(t *testing.T) {
	var frames, stats, labels, caps, ingest, pooled, capBodies [][][]byte
	for _, frame := range fuzzSeedFrames(t) {
		frames = append(frames, [][]byte{frame})
	}
	for _, s := range statsFuzzSeeds(t) {
		stats = append(stats, [][]byte{s.prev, s.body})
	}
	for _, v := range labelFuzzSeeds {
		labels = append(labels, [][]byte{[]byte(v)})
	}
	for _, s := range capFuzzSeeds {
		caps = append(caps, [][]byte{[]byte(s.body)})
	}
	for _, seq := range ingestFuzzSeeds(t) {
		ingest = append(ingest, [][]byte{joinFrames(seq)})
	}
	for _, seq := range pooledDecodeFuzzSeeds(t) {
		pooled = append(pooled, [][]byte{joinFrames(seq)})
	}
	for _, v := range capBodyFuzzSeeds {
		capBodies = append(capBodies, [][]byte{capBits(v)})
	}
	checkCorpus(t, "FuzzDecodeHeartbeat", frames)
	checkCorpus(t, "FuzzDecodeStats", stats)
	checkCorpus(t, "FuzzExpositionLabels", labels)
	checkCorpus(t, "FuzzDecodeCapRequest", caps)
	checkCorpus(t, "FuzzIngestEntryPoints", ingest)
	checkCorpus(t, "FuzzPooledHeartbeatDecode", pooled)
	checkCorpus(t, "FuzzCapRequestBody", capBodies)
}

// checkCorpus compares (or, with POCOLO_WRITE_CORPUS set, writes) one
// fuzz target's committed corpus against its seeds' []byte arguments.
func checkCorpus(t *testing.T, target string, seeds [][][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	write := os.Getenv("POCOLO_WRITE_CORPUS") != ""
	if write {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, args := range seeds {
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		want := "go test fuzz v1\n"
		for _, arg := range args {
			want += fmt.Sprintf("[]byte(%q)\n", arg)
		}
		if write {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("corpus seed missing (regenerate with POCOLO_WRITE_CORPUS=1): %v", err)
		}
		if string(got) != want {
			t.Errorf("%s is stale (regenerate with POCOLO_WRITE_CORPUS=1)", path)
		}
	}
}

// FuzzDecodeHeartbeat throws arbitrary bytes at the frame decoder. The
// contract under fuzz: never panic, never accept a frame violating the
// documented invariants, and canonical idempotence — anything that
// decodes must re-encode and decode again to the identical frame.
func FuzzDecodeHeartbeat(f *testing.F) {
	for _, frame := range fuzzSeedFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		hb, err := DecodeHeartbeat(frame)
		if err != nil {
			return // rejected cleanly
		}
		if hb.Agent == "" || len(hb.Agent) > maxHeartbeatName {
			t.Fatalf("decoded agent name length %d outside bounds", len(hb.Agent))
		}
		if hb.Seq == 0 {
			t.Fatal("decoded seq 0")
		}
		if hb.Full {
			if len(hb.URL) > maxHeartbeatURL {
				t.Fatalf("decoded URL length %d exceeds %d", len(hb.URL), maxHeartbeatURL)
			}
			if hb.Stats.Agent != hb.Agent {
				t.Fatalf("header %q vs snapshot %q survived decode", hb.Agent, hb.Stats.Agent)
			}
		} else {
			if hb.Base >= hb.Seq {
				t.Fatalf("decoded base %d not before seq %d", hb.Base, hb.Seq)
			}
			if hb.Mask&^hbMaskAll != 0 {
				t.Fatalf("decoded mask %#x has undefined bits", hb.Mask)
			}
		}
		re, err := EncodeHeartbeat(hb)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		hb2, err := DecodeHeartbeat(re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		got, err := json.Marshal(hb2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(hb)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("decode/encode/decode not idempotent:\n got %s\nwant %s", got, want)
		}
	})
}

// maxFuzzFrames bounds the frame sequence of one FuzzIngestEntryPoints
// or FuzzPooledHeartbeatDecode input.
const maxFuzzFrames = 64

// joinFrames and splitFrames convert between a frame sequence and one
// FuzzIngestEntryPoints or FuzzPooledHeartbeatDecode input: each frame
// prefixed with its length as a uvarint. A malformed or overlong
// prefix, or a frame past maxFuzzFrames, ends the sequence.
func joinFrames(frames [][]byte) []byte {
	var b []byte
	for _, f := range frames {
		b = binary.AppendUvarint(b, uint64(len(f)))
		b = append(b, f...)
	}
	return b
}

func splitFrames(b []byte) [][]byte {
	var frames [][]byte
	for len(b) > 0 && len(frames) < maxFuzzFrames {
		n, k := binary.Uvarint(b)
		if k <= 0 || n > uint64(len(b)-k) {
			break
		}
		frames = append(frames, b[k:k+int(n)])
		b = b[k+int(n):]
	}
	return frames
}

// FuzzIngestEntryPoints holds the two ingest entry points to one
// behaviour over arbitrary frame sequences: IngestHeartbeat frame by
// frame and one IngestBatch call must agree on every ack, on StreamStats
// and on every decoder's state (checkIngestEntryPoints).
func FuzzIngestEntryPoints(f *testing.F) {
	for _, frames := range ingestFuzzSeeds(f) {
		f.Add(joinFrames(frames))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkIngestEntryPoints(t, splitFrames(b))
	})
}

// FuzzPooledHeartbeatDecode holds the pooled full-frame decode to a
// fresh inflater over arbitrary frame sequences: each frame, decoded in
// order, must return what decodeHeartbeatReference returns, so no frame
// can leave pooled state behind that changes a later frame's result.
func FuzzPooledHeartbeatDecode(f *testing.F) {
	for _, frames := range pooledDecodeFuzzSeeds(f) {
		f.Add(joinFrames(frames))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for i, frame := range splitFrames(b) {
			if d := decodeDisagreement(frame); d != "" {
				t.Fatalf("frame %d: %s", i, d)
			}
		}
	})
}

// FuzzDecodeStats holds the poll probe's fast decoder to encoding/json.
// prev warms the agent's cache, as the previous probe would have, then
// body is decoded with it: the result must match json.Decoder's decode of
// body into a zero StatsResponse (the same error-or-not, and deeply equal
// values when both succeed), and any body the fast path accepts must be
// one encoding/json accepts.
func FuzzDecodeStats(f *testing.F) {
	for _, s := range statsFuzzSeeds(f) {
		f.Add(s.prev, s.body)
	}
	f.Fuzz(func(t *testing.T, prev, body []byte) { checkDecodeStats(t, prev, body) })
}

// FuzzDecodeCapRequest holds the cap push decoder to encoding/json: for
// any body within the control-body bound, decodeCapRequest and
// json.Decoder agree on accept/reject and on the bits of CapW, and the
// in-place path serves only bodies encoding/json decodes to the same
// bits.
func FuzzDecodeCapRequest(f *testing.F) {
	for _, s := range capFuzzSeeds {
		f.Add([]byte(s.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxControlBody {
			return
		}
		checkDecodeCapRequest(t, body)
	})
}

// FuzzExpositionLabels renders agent and controller expositions whose
// every free label value is v, through the same builders and writer the
// /metrics handlers use. For any valid UTF-8 v the result must lint, and
// every such label must decode back to v.
func FuzzExpositionLabels(f *testing.F) {
	for _, v := range labelFuzzSeeds {
		f.Add([]byte(v))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v := string(b)
		if !utf8.ValidString(v) {
			return
		}
		reg := obs.NewRegistry()
		reg.Histogram("pocolo_tick_duration_seconds", "Phase durations.", obs.Label{Key: "phase", Value: v}).Observe(0.001)
		reg.ValueHistogram("pocolo_lc_slack_ratio_distribution", "Slack.", []float64{0, 0.1}).Observe(0.05)
		agent := agentMetrics(StatsResponse{Agent: v, LC: v, AssignedBE: v, BEOpsBy: map[string]float64{v: 1.5}}, reg.Snapshot())
		ctl := controllerMetrics(Status{
			Agents:    []AgentStatus{{Name: v, URL: v, Alive: true}},
			Placement: map[string]string{v: v},
			Budget:    &BudgetStatus{NodeBudgets: map[string]float64{v: 100}, Shares: map[string]float64{v: 90}},
		}, StreamStats{}, obs.Snapshot{})
		for _, snap := range []obs.Snapshot{agent, ctl} {
			var buf bytes.Buffer
			if err := obs.WriteProm(&buf, snap); err != nil {
				t.Fatal(err)
			}
			buf.WriteString("# EOF\n")
			for _, s := range decodeSamples(t, buf.String()) {
				for k, got := range s.labels {
					if k != "le" && k != "mode" && k != "state" && got != v {
						t.Fatalf("%s: label %s decoded to %q, want %q", s.name, k, got, v)
					}
				}
			}
		}
	})
}
