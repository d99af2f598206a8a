package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"pocolo/internal/obs"
)

// agentStatsBody is a real agent's GET /v1/stats reply after five
// simulated seconds, running best-effort app be unless it is "".
func agentStatsBody(tb testing.TB, be string) []byte {
	tb.Helper()
	return agentStatsBodies(tb, be, 1)[0]
}

// agentStatsBodies is n consecutive GET /v1/stats replies of one real
// agent, one simulated second apart from the fifth second on: what a
// poll controller reads of it in n rounds.
func agentStatsBodies(tb testing.TB, be string, n int) [][]byte {
	tb.Helper()
	a := newTestAgent(tb, "agent-a", "xapian", "graph", "lstm")
	if be != "" {
		if err := a.Assign(be); err != nil {
			tb.Fatal(err)
		}
	}
	if err := a.Advance(4 * time.Second); err != nil {
		tb.Fatal(err)
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		if err := a.Advance(time.Second); err != nil {
			tb.Fatal(err)
		}
		rec := httptest.NewRecorder()
		a.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, RouteStats, nil))
		if rec.Code != http.StatusOK {
			tb.Fatalf("GET %s: %d %s", RouteStats, rec.Code, rec.Body)
		}
		bodies[i] = rec.Body.Bytes()
	}
	return bodies
}

// statsSeed is one FuzzDecodeStats corpus entry: prev warms the agent's
// cache, body is then decoded with it, and fast says whether the fast
// path must serve body.
type statsSeed struct {
	name       string
	prev, body []byte
	fast       bool
}

// statsFuzzSeeds are real agent bodies (compact, indented, with
// best-effort work running) and one edit of a real body per class of
// input the fast path must decline, plus the edge cases around them.
// TestFuzzCorpusCommitted mirrors them into testdata/fuzz/FuzzDecodeStats.
func statsFuzzSeeds(tb testing.TB) []statsSeed {
	tb.Helper()
	idle := agentStatsBody(tb, "")
	busy := agentStatsBody(tb, "graph")
	var indented bytes.Buffer
	if err := json.Indent(&indented, idle, "", "\t"); err != nil {
		tb.Fatal(err)
	}
	// set replaces key's scalar value in body.
	set := func(body []byte, key, value string) []byte {
		re := regexp.MustCompile(`"` + key + `":(-?[0-9][0-9.eE+-]*|"[^"]*"|true|false|null)`)
		if !re.Match(body) {
			tb.Fatalf("no scalar %q in %s", key, body)
		}
		return re.ReplaceAllLiteral(body, []byte(`"`+key+`":`+value))
	}
	// lead inserts members at the front of body's object.
	lead := func(body []byte, members string) []byte {
		return append([]byte("{"+members+","), body[1:]...)
	}
	if !bytes.Contains(busy, []byte(`"be_ops_by":{"graph":`)) {
		tb.Fatalf("best-effort work not running: %s", busy)
	}
	// opsBy replaces busy's be_ops_by object with value.
	opsByRE := regexp.MustCompile(`"be_ops_by":\{[^{}]*\}`)
	opsBy := func(value string) []byte {
		return opsByRE.ReplaceAllLiteral(busy, []byte(`"be_ops_by":`+value))
	}
	return []statsSeed{
		{"cold", nil, idle, true},
		{"warm", idle, idle, true},
		{"warm-busy", idle, busy, true},
		{"warm-indented", idle, indented.Bytes(), true},
		{"int-minus-zero", idle, set(idle, "control_ticks", "-0"), true},
		{"case-variant-key", idle, bytes.Replace(idle, []byte(`"agent":`), []byte(`"Agent":`), 1), false},
		{"duplicate-scalar", idle, lead(idle, `"power_w":1`), false},
		// encoding/json merges the two objects into one map.
		{"duplicate-be-ops-by", busy, lead(busy, `"be_ops_by":{"lstm":2}`), false},
		{"null-scalar", idle, set(idle, "power_w", "null"), false},
		{"int-fraction", idle, set(idle, "control_ticks", "1.0"), false},
		{"int-exponent", idle, set(idle, "control_ticks", "1e3"), false},
		{"float-out-of-range", idle, set(idle, "power_w", "1e400"), false},
		{"leading-zero", idle, set(idle, "power_w", "01"), false},
		{"escaped-string", idle, set(idle, "agent", `"agent-\u0061"`), false},
		{"non-ascii-string", idle, set(idle, "agent", `"agent-é"`), false},
		{"trailing-bytes", idle, append(bytes.Clone(idle), "x"...), false},
		{"truncated", idle, idle[:len(idle)/2], false},
		{"empty", idle, []byte{}, false},
		// be_ops_by is parsed in place when it is null or an object of
		// plain keys and numbers; encoding/json decodes the rest.
		{"be-ops-by-null", busy, opsBy(`null`), true},
		{"be-ops-by-empty", busy, opsBy(`{}`), true},
		{"be-ops-by-repeated-key", busy, opsBy(`{"graph":1,"lstm":2,"graph":3}`), true},
		{"be-ops-by-escaped-key", busy, opsBy(`{"gr\u0061ph":1}`), true},
		{"be-ops-by-null-value", busy, opsBy(`{"graph":null}`), true},
		{"be-ops-by-string-value", busy, opsBy(`{"graph":"1"}`), false},
		{"be-ops-by-out-of-range", busy, opsBy(`{"graph":1e999}`), false},
		{"be-ops-by-nested", busy, opsBy(`{"graph":{"ops":1}}`), false},
		{"be-ops-by-whitespace", busy, opsBy("{ \"graph\" :\t1.5e3 ,\n\"lstm\": -0 }"), true},
	}
}

// decodeStatsReference is the decode the fast path must reproduce.
func decodeStatsReference(body []byte) (StatsResponse, error) {
	var st StatsResponse
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&st)
	return st, err
}

// checkDecodeStats decodes body against the cache a decode of prev
// leaves and holds the result to decodeStatsReference's: the same
// error-or-not, deeply equal values when both succeed, and a body the
// fast path serves must be one encoding/json accepts. It reports whether
// the fast path served body.
func checkDecodeStats(t *testing.T, prev, body []byte) bool {
	t.Helper()
	var warm StatsResponse
	cache, _, _ := decodeStats(prev, nil, &warm)
	var got StatsResponse
	_, fast, err := decodeStats(body, cache, &got)
	want, wantErr := decodeStatsReference(body)
	if fast && wantErr != nil {
		t.Fatalf("fast path accepted a body encoding/json rejects: %v", wantErr)
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("error %v, encoding/json %v", err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("fast=%v decoded %+v\nencoding/json %+v", fast, got, want)
	}
	return fast
}

// TestDecodeStatsSeeds decodes every corpus seed: the fast path must
// serve exactly the seeds marked fast, and the result must equal
// encoding/json's on all of them.
func TestDecodeStatsSeeds(t *testing.T) {
	for _, s := range statsFuzzSeeds(t) {
		t.Run(s.name, func(t *testing.T) {
			if fast := checkDecodeStats(t, s.prev, s.body); fast != s.fast {
				t.Fatalf("fast path served=%v, want %v", fast, s.fast)
			}
		})
	}
}

// TestDecodeStatsReusesSections: an unchanged body decodes into the same
// cache with the same decoded sections, so poll-fed model pointers stay
// stable across rounds; a changed section is decoded afresh into a new
// cache while the old cache, shared with earlier reports, is untouched.
func TestDecodeStatsReusesSections(t *testing.T) {
	idle := agentStatsBody(t, "")
	var first, second, third StatsResponse
	c1, fast, err := decodeStats(idle, nil, &first)
	if err != nil || !fast || c1 == nil {
		t.Fatalf("cold decode: cache %v fast %v err %v", c1, fast, err)
	}
	c2, fast, err := decodeStats(idle, c1, &second)
	if err != nil || !fast {
		t.Fatalf("warm decode: fast %v err %v", fast, err)
	}
	if c2 != c1 {
		t.Fatal("unchanged body built a new cache")
	}
	if second.LCModel != first.LCModel || second.BEModels["graph"] != first.BEModels["graph"] {
		t.Fatal("unchanged models decoded to new pointers")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("warm decode differs:\n%+v\n%+v", first, second)
	}

	before, err := json.Marshal(c1.vals)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(c1.raw)
	if err != nil {
		t.Fatal(err)
	}
	busy := agentStatsBody(t, "graph")
	c3, fast, err := decodeStats(busy, c1, &third)
	if err != nil || !fast {
		t.Fatalf("changed body: fast %v err %v", fast, err)
	}
	if c3 == c1 {
		t.Fatal("changed body reused the old cache")
	}
	if third.LCModel != first.LCModel {
		t.Fatal("an unchanged section was decoded again")
	}
	if reflect.DeepEqual(third.BEOpsBy, first.BEOpsBy) || third.AssignedBE != "graph" {
		t.Fatalf("changed fields not decoded: %v %q", third.BEOpsBy, third.AssignedBE)
	}
	after, err := json.Marshal(c1.vals)
	if err != nil {
		t.Fatal(err)
	}
	rawAfter, err := json.Marshal(c1.raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) || !bytes.Equal(raw, rawAfter) {
		t.Fatal("decoding a changed body wrote to the previous cache")
	}
}

// TestDecodeStatsKeepsCacheWhileBusy: an agent running best-effort work
// reports a new be_ops_by on every probe, and nothing else the cache
// holds moves, so its consecutive bodies decode against one cache and
// keep their models' pointers. Each decode equals encoding/json's.
func TestDecodeStatsKeepsCacheWhileBusy(t *testing.T) {
	bodies := agentStatsBodies(t, "graph", 4)
	var first StatsResponse
	cache, fast, err := decodeStats(bodies[0], nil, &first)
	if err != nil || !fast {
		t.Fatalf("cold decode: fast %v err %v", fast, err)
	}
	for i, body := range bodies[1:] {
		var st StatsResponse
		next, fast, err := decodeStats(body, cache, &st)
		if err != nil || !fast {
			t.Fatalf("body %d: fast %v err %v", i+1, fast, err)
		}
		if next != cache {
			t.Fatalf("body %d built a new cache; only be_ops_by moved", i+1)
		}
		want, err := decodeStatsReference(body)
		if err != nil || !reflect.DeepEqual(st, want) {
			t.Fatalf("body %d: decoded %+v\nencoding/json %+v (%v)", i+1, st, want, err)
		}
		if reflect.DeepEqual(st.BEOpsBy, first.BEOpsBy) {
			t.Fatalf("body %d: be_ops_by %v did not move", i+1, st.BEOpsBy)
		}
		if st.LCModel != first.LCModel || st.BEModels["graph"] != first.BEModels["graph"] {
			t.Fatalf("body %d: unchanged models decoded to new pointers", i+1)
		}
	}
}

// fillNonZero sets v, and everything reachable from it, to non-zero
// values that survive a JSON round trip. n makes each value distinct.
func fillNonZero(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("v%d", *n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(t, v.Field(i), n)
			}
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		fillNonZero(t, s.Index(0), n)
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		k := reflect.New(v.Type().Key()).Elem()
		fillNonZero(t, k, n)
		e := reflect.New(v.Type().Elem()).Elem()
		fillNonZero(t, e, n)
		m.SetMapIndex(k, e)
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fillNonZero(t, p.Elem(), n)
		v.Set(p)
	default:
		t.Fatalf("fillNonZero: unhandled kind %s", v.Kind())
	}
}

// TestDecodeStatsCoversEveryField guards the fast path's coverage: a
// StatsResponse with every field non-zero, built by reflection so fields
// added later are covered too, and a real agent's reply must both be
// served by the fast path and decode as encoding/json decodes them. A
// field with no statsFields entry fails here instead of silently sending
// every probe down the fallback.
func TestDecodeStatsCoversEveryField(t *testing.T) {
	var full StatsResponse
	v := reflect.ValueOf(&full).Elem()
	n := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if key == "" || key == "-" {
			t.Fatalf("StatsResponse.%s has no json key", f.Name)
		}
		fillNonZero(t, v.Field(i), &n)
		if v.Field(i).IsZero() {
			t.Fatalf("StatsResponse.%s left zero", f.Name)
		}
	}
	body, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	reply := agentStatsBody(t, "graph")
	for name, body := range map[string][]byte{"every-field": body, "agent-reply": reply} {
		if !checkDecodeStats(t, nil, body) {
			t.Fatalf("%s: fast path declined %s", name, body)
		}
	}
}

// pollController is a polling controller over canned /v1/stats bodies.
func pollController(t *testing.T, bodies map[string][]byte, reg *obs.Registry) *Controller {
	t.Helper()
	urls := make([]string, 0, len(bodies))
	for u := range bodies {
		urls = append(urls, u)
	}
	ctl, err := NewController(ControllerConfig{
		AgentURLs: urls,
		Transport: TransportPoll,
		Heartbeat: time.Second,
		Client:    &http.Client{Transport: &benchTransport{stats: bodies}},
		Obs:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

// TestPollProbeBodyLimit: a probe reads at most maxHeartbeatBlob bytes,
// as a stream snapshot is bounded. A larger body fails the probe, which
// counts as a miss and names the limit; a body just under it decodes.
func TestPollProbeBodyLimit(t *testing.T) {
	for _, tc := range []struct {
		name string
		pad  int // length of the lc string
		ok   bool
	}{
		{"over", maxHeartbeatBlob + 1, false},
		{"under", maxHeartbeatBlob - len(`{"agent":"a1","lc":""}`) - 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lc := strings.Repeat("x", tc.pad)
			body := []byte(`{"agent":"a1","lc":"` + lc + `"}`)
			ctl := pollController(t, map[string][]byte{"http://a1": body}, nil)
			ctl.Round(context.Background())
			st := ctl.Status().Agents[0]
			if !tc.ok {
				if st.Misses != 1 || !strings.Contains(st.LastError, fmt.Sprint(maxHeartbeatBlob)) {
					t.Fatalf("%d-byte body: misses %d, last error %q", len(body), st.Misses, st.LastError)
				}
				return
			}
			if !st.Alive || st.LC != lc || st.LastError != "" {
				t.Fatalf("%d-byte body: alive %v, lc %d bytes, last error %q", len(body), st.Alive, len(st.LC), st.LastError)
			}
		})
	}
}

// TestPollDecodeCounter: a poll controller with a registry counts each
// decoded body by path, and only poll controllers register the series.
func TestPollDecodeCounter(t *testing.T) {
	reg := obs.NewRegistry()
	ctl := pollController(t, map[string][]byte{
		"http://fast":     []byte(`{"agent":"fast","lc":"xapian"}`),
		"http://fallback": []byte(`{"agent":"fallback","lc":"xapian","extra":1}`),
	}, reg)
	ctl.Round(context.Background())
	got := map[string]float64{}
	for _, cs := range reg.Snapshot().Counters {
		if cs.Name == "pocolo_obs_poll_decode_total" {
			got[labelValue(cs.Labels, "path")] = cs.Value
		}
	}
	if want := map[string]float64{"fast": 1, "fallback": 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pocolo_obs_poll_decode_total = %v, want %v", got, want)
	}
	for _, a := range ctl.Status().Agents {
		if !a.Alive {
			t.Fatalf("agent %s not discovered: %s", a.URL, a.LastError)
		}
	}

	streamReg := obs.NewRegistry()
	if _, err := NewController(ControllerConfig{AgentURLs: []string{"http://a"}, Transport: TransportStream, Obs: streamReg}); err != nil {
		t.Fatal(err)
	}
	for _, cs := range streamReg.Snapshot().Counters {
		if cs.Name == "pocolo_obs_poll_decode_total" {
			t.Fatalf("stream controller registered %s", cs.Name)
		}
	}
}

// TestPollKeepsModelPointers: across poll rounds an unchanged agent
// report keeps its decoded model pointers, as the stream transport's
// snapshots do, so the sharded engine sees unchanged columns as unchanged.
func TestPollKeepsModelPointers(t *testing.T) {
	ctl := pollController(t, map[string][]byte{"http://a1": agentStatsBody(t, "")}, nil)
	ctx := context.Background()
	ctl.Round(ctx)
	a := ctl.agents[0]
	lc, cache := a.last.LCModel, a.probeCache
	ctl.Round(ctx)
	if lc == nil || a.last.LCModel != lc || a.probeCache != cache {
		t.Fatalf("second round: model %p -> %p, cache %p -> %p", lc, a.last.LCModel, cache, a.probeCache)
	}
}

// BenchmarkDecodeStatsWarm decodes a real agent reply, with best-effort
// work running, against the cache its previous decode left: the
// steady-state poll probe.
func BenchmarkDecodeStatsWarm(b *testing.B) {
	body := agentStatsBody(b, "graph")
	var st StatsResponse
	cache, fast, err := decodeStats(body, nil, &st)
	if err != nil || !fast {
		b.Fatalf("fast %v err %v", fast, err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache, _, _ = decodeStats(body, cache, &st)
	}
}

// BenchmarkDecodeStatsMoving decodes consecutive real replies of an
// agent running best-effort work, each against the cache the previous
// decode left: the poll probe of a busy agent, whose be_ops_by moves on
// every probe.
func BenchmarkDecodeStatsMoving(b *testing.B) {
	bodies := agentStatsBodies(b, "graph", 17)
	var st StatsResponse
	cache, fast, err := decodeStats(bodies[0], nil, &st)
	if err != nil || !fast {
		b.Fatalf("fast %v err %v", fast, err)
	}
	ring := bodies[1:]
	b.SetBytes(int64(len(ring[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache, _, _ = decodeStats(ring[i%len(ring)], cache, &st)
	}
}

// BenchmarkDecodeStatsCold decodes a real body with no cache: an agent's
// first probe, or one whose every section changed.
func BenchmarkDecodeStatsCold(b *testing.B) {
	body := agentStatsBody(b, "graph")
	var st StatsResponse
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeStats(body, nil, &st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeStatsJSON is the baseline: encoding/json's decode of
// the same body, as every probe did before the fast path.
func BenchmarkDecodeStatsJSON(b *testing.B) {
	body := agentStatsBody(b, "graph")
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeStatsReference(body); err != nil {
			b.Fatal(err)
		}
	}
}
