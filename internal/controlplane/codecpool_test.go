package controlplane

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// The tests in this file hold the pooled DEFLATE state of full frames
// to the fresh per-frame state it replaced: the same wire bytes out of
// the encoder, the same Heartbeat or error text out of the decoder, in
// any order and from several goroutines at once.

// encodeHeartbeatReference builds a v2 full frame with a fresh
// flate.NewWriter, as EncodeHeartbeat did before it pooled its writer.
func encodeHeartbeatReference(tb testing.TB, hb *Heartbeat) []byte {
	tb.Helper()
	blob, err := json.Marshal(&hb.Stats)
	if err != nil {
		tb.Fatal(err)
	}
	return fullFrameV2(hb, uint64(len(blob)), deflateFresh(tb, blob))
}

func deflateFresh(tb testing.TB, blob []byte) []byte {
	tb.Helper()
	var comp bytes.Buffer
	zw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := zw.Write(blob); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return comp.Bytes()
}

// fullFrameV2 lays out a v2 full frame around any declared raw length
// and compressed section, so a test can build frames that lie.
func fullFrameV2(hb *Heartbeat, rawLen uint64, comp []byte) []byte {
	b := []byte{hbMagic, hbVersion, hbFlagFull}
	b = binary.AppendUvarint(b, uint64(len(hb.Agent)))
	b = append(b, hb.Agent...)
	b = binary.AppendUvarint(b, hb.Seq)
	b = binary.AppendUvarint(b, hb.Epoch)
	b = binary.AppendUvarint(b, uint64(len(hb.URL)))
	b = append(b, hb.URL...)
	b = binary.AppendUvarint(b, rawLen)
	b = binary.AppendUvarint(b, uint64(len(comp)))
	return append(b, comp...)
}

// decodeHeartbeatReference decodes a frame the way DecodeHeartbeat did
// before it pooled its inflater: a fresh flate.NewReader and io.ReadAll
// per v2 full frame.
func decodeHeartbeatReference(frame []byte) (*Heartbeat, error) {
	return decodeHeartbeat(frame, func(comp []byte, n uint64, dst *StatsResponse) error {
		br := bytes.NewReader(comp)
		zr := flate.NewReader(br)
		blob, err := io.ReadAll(io.LimitReader(zr, int64(n)+1))
		if cerr := zr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("controlplane: heartbeat snapshot inflate: %w", err)
		}
		if uint64(len(blob)) != n {
			return fmt.Errorf("controlplane: heartbeat snapshot inflates to %d bytes, header says %d", len(blob), n)
		}
		if br.Len() != 0 {
			return fmt.Errorf("controlplane: heartbeat compressed snapshot has %d trailing bytes", br.Len())
		}
		if err := json.Unmarshal(blob, dst); err != nil {
			return fmt.Errorf("controlplane: heartbeat snapshot: %w", err)
		}
		return nil
	})
}

// decodeDisagreement decodes frame with DecodeHeartbeat and with
// decodeHeartbeatReference and describes how the two differ ("" when
// they return the same Heartbeat or the same error text).
func decodeDisagreement(frame []byte) string {
	want, werr := decodeHeartbeatReference(frame)
	got, gerr := DecodeHeartbeat(frame)
	switch {
	case werr != nil || gerr != nil:
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			return fmt.Sprintf("error %v, reference error %v", gerr, werr)
		}
	case !reflect.DeepEqual(got, want):
		return fmt.Sprintf("decoded %+v, reference %+v", got, want)
	}
	return ""
}

// resyncSnapshots are full frames of several sizes: a bare identity,
// the codec fixture, a snapshot carrying fitted models, and one whose
// JSON runs past DEFLATE's 32 KiB window.
func resyncSnapshots(tb testing.TB) []*Heartbeat {
	tb.Helper()
	big := codecStats()
	big.BEOpsBy = make(map[string]float64, 2000)
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 2000; i++ {
		big.BEOpsBy[fmt.Sprintf("be-%04d", i)] = rng.Float64() * 1e6
	}
	stats := []StatsResponse{{Agent: "agent-a"}, codecStats(), streamTestStats(tb, "agent-a", "graph", "lstm"), big}
	hbs := make([]*Heartbeat, len(stats))
	for i, st := range stats {
		hbs[i] = &Heartbeat{Agent: "agent-a", URL: "http://agent-a:7001", Seq: uint64(i + 1), Epoch: 1, Full: true, Stats: st}
	}
	return hbs
}

// TestHeartbeatEncodePooledMatchesFresh requires every full frame to be
// byte-identical to a fresh writer's, with the pooled writer passed
// between snapshots of very different sizes, and from 8 goroutines
// encoding at once.
func TestHeartbeatEncodePooledMatchesFresh(t *testing.T) {
	hbs := resyncSnapshots(t)
	want := make([][]byte, len(hbs))
	for i, hb := range hbs {
		want[i] = encodeHeartbeatReference(t, hb)
	}
	encode := func(i int) error {
		got, err := EncodeHeartbeat(hbs[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want[i]) {
			return fmt.Errorf("snapshot %d: pooled frame (%d bytes) differs from a fresh writer's (%d bytes)", i, len(got), len(want[i]))
		}
		return nil
	}
	// Interleaved sizes on one goroutine: forward, backward, and each
	// size after every other.
	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {3, 0, 2, 0, 1, 3, 1, 2}} {
		for _, i := range order {
			if err := encode(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				if err := encode((g + k) % len(hbs)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// namedFrame is one frame of the decoder's differential corpus; bad
// frames must fail to decode.
type namedFrame struct {
	name  string
	frame []byte
	bad   bool
}

// resyncDecodeFrames covers each path through a full frame's snapshot
// decode, built around hb: a valid v2 frame, a v1 frame, a delta, and
// every way the strict inflate rejects a v2 frame.
func resyncDecodeFrames(tb testing.TB, hb *Heartbeat) []namedFrame {
	tb.Helper()
	blob, err := json.Marshal(&hb.Stats)
	if err != nil {
		tb.Fatal(err)
	}
	comp := deflateFresh(tb, blob)
	n := uint64(len(blob))
	huffman := append([]byte(nil), comp...)
	huffman[1], huffman[2], huffman[3] = 0xFF, 0xFF, 0xFF // an incomplete code-length code
	cur := hb.Stats
	cur.PowerW += 2.5
	cur.ControlTicks++
	delta, err := EncodeHeartbeat(&Heartbeat{
		Agent: hb.Agent, Seq: hb.Seq + 1, Base: hb.Seq, Epoch: hb.Epoch,
		Mask: heartbeatMask(&hb.Stats, &cur), Stats: cur,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return []namedFrame{
		{name: "v2 full", frame: fullFrameV2(hb, n, comp)},
		{name: "v1 full", frame: encodeHeartbeatV1Full(tb, hb)},
		{name: "delta", frame: delta},
		{name: "truncated deflate stream", frame: fullFrameV2(hb, n, comp[:len(comp)/2]), bad: true},
		{name: "corrupt huffman header", frame: fullFrameV2(hb, n, huffman), bad: true},
		{name: "raw length one short", frame: fullFrameV2(hb, n-1, comp), bad: true},
		{name: "raw length one long", frame: fullFrameV2(hb, n+1, comp), bad: true},
		{name: "trailing compressed bytes", frame: fullFrameV2(hb, n, append(append([]byte(nil), comp...), 0xDE, 0xAD)), bad: true},
	}
}

// TestHeartbeatDecodePooledMatchesFresh decodes a seeded shuffle of
// valid and malformed full frames, in several sizes, and requires
// DecodeHeartbeat to return what the fresh-inflater reference returns:
// the same Heartbeat or the same error text. Every good frame that
// follows a bad one is checked too, so a rejected frame cannot leave
// pooled state that changes the next result. Then 8 goroutines each
// decode the whole shuffle at once, from different offsets.
func TestHeartbeatDecodePooledMatchesFresh(t *testing.T) {
	hbs := resyncSnapshots(t)
	frames := resyncDecodeFrames(t, hbs[1])
	for _, hb := range hbs {
		frame := encodeHeartbeatReference(t, hb)
		frames = append(frames, namedFrame{name: fmt.Sprintf("v2 full, %d bytes", len(frame)), frame: frame})
	}
	for _, f := range frames {
		if _, err := decodeHeartbeatReference(f.frame); (err != nil) != f.bad {
			t.Fatalf("%s: reference decode error %v, want bad=%v", f.name, err, f.bad)
		}
	}
	var order []int
	for rep := 0; rep < 6; rep++ {
		for i := range frames {
			order = append(order, i)
		}
	}
	rand.New(rand.NewSource(19)).Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	afterBad := 0
	for k, i := range order {
		if d := decodeDisagreement(frames[i].frame); d != "" {
			t.Fatalf("step %d, %s: %s", k, frames[i].name, d)
		}
		if k > 0 && frames[order[k-1]].bad && !frames[i].bad {
			afterBad++
		}
	}
	if afterBad == 0 {
		t.Fatal("the shuffle never decodes a good frame right after a bad one")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range order {
				f := frames[order[(k+g)%len(order)]]
				if d := decodeDisagreement(f.frame); d != "" {
					t.Errorf("goroutine %d, %s: %s", g, f.name, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
