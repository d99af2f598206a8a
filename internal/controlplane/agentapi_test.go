package controlplane

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pocolo/internal/machine"
)

// capSeed is one FuzzDecodeCapRequest corpus entry; fast says whether the
// in-place path must serve body.
type capSeed struct {
	body string
	fast bool
}

// capFuzzSeeds are the controller's canonical cap body and one edit of it
// per class of input the in-place path must decline. TestFuzzCorpusCommitted
// mirrors them into testdata/fuzz/FuzzDecodeCapRequest.
var capFuzzSeeds = []capSeed{
	{`{"cap_w":123.456}`, true},              // canonical: what the controller's push sends
	{"{\"cap_w\":123.456}\n", true},          // with json.Encoder's newline
	{` { "cap_w" : 123.456 }` + "\n", false}, // whitespace
	{`{"CAP_W":123.456}`, false},             // case-variant key, which encoding/json folds
	{`{"cap_w":123.456,"x":1}`, false},       // extra field
	{`{"cap_w":1,"cap_w":2}`, false},         // duplicate key: the last wins
	{`{"cap_w":-0}`, true},                   // negative zero
	{`{"cap_w":1E+2}`, true},                 // upper-case exponent with a sign
	{`{"cap_w":1e400}`, false},               // out of range: rejected
	{`{"cap_w":01}`, false},                  // leading zero: rejected
	{`{"cap_w":.5}`, false},                  // no integer part: rejected
	{`{"cap_w":NaN}`, false},                 // not JSON: rejected
	{`{"cap_w":1}x`, false},                  // trailing data after the value
	{``, false},                              // empty body: rejected
}

// checkDecodeCapRequest holds decodeCapRequest to json.Decoder on body:
// the same accept/reject and, on accept, the same float64 bits. It
// reports whether the in-place path served body.
func checkDecodeCapRequest(t *testing.T, body []byte) (fast bool) {
	t.Helper()
	var want CapRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	got, err := decodeCapRequest(body)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: decodeCapRequest err = %v, encoding/json err = %v", body, err, wantErr)
	}
	if err == nil && math.Float64bits(got) != math.Float64bits(want.CapW) {
		t.Fatalf("%q: decodeCapRequest = %v (%#x), encoding/json = %v (%#x)",
			body, got, math.Float64bits(got), want.CapW, math.Float64bits(want.CapW))
	}
	w, fast := parseCanonicalCap(body)
	if fast && (wantErr != nil || math.Float64bits(w) != math.Float64bits(want.CapW)) {
		t.Fatalf("%q: in-place path accepted %v, encoding/json: %v, err %v", body, w, want.CapW, wantErr)
	}
	return fast
}

// TestDecodeCapRequestSeeds pins which seeds the in-place path serves, so
// a path that silently declines everything (correct but slow) fails.
func TestDecodeCapRequestSeeds(t *testing.T) {
	for _, s := range capFuzzSeeds {
		if fast := checkDecodeCapRequest(t, []byte(s.body)); fast != s.fast {
			t.Errorf("%q: in-place path served = %v, want %v", s.body, fast, s.fast)
		}
	}
}

// TestCapReplyMatchesWriteJSON holds the cap ack to the bytes
// writeJSON(CapResponse{...}) writes, for agent names that need escaping
// and caps on both sides of encoding/json's 'f'/'e' switch, plus random
// finite values; and, through the router, to its status and headers.
func TestCapReplyMatchesWriteJSON(t *testing.T) {
	names := []string{"agent-a", `quo"te`, `back\slash`, "<lt", "a&b", "line\u2028sep", `all "\<&` + "\u2028\u2029>"}
	caps := []float64{0, 1e-7, 123.456, 1e21, -0.0, 1e-6, 9.99e20, 5e-324, math.MaxFloat64}
	rng := rand.New(rand.NewSource(1))
	for len(caps) < 200 {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			caps = append(caps, v)
		}
	}
	for _, name := range names {
		a := newTestAgent(t, name, "xapian")
		for _, c := range caps {
			want := httptest.NewRecorder()
			writeJSON(want, http.StatusOK, CapResponse{Agent: name, CapW: c})
			if got := a.appendCapReply(nil, c); string(got) != want.Body.String() {
				t.Fatalf("name %q cap %v: reply %q, writeJSON %q", name, c, got, want.Body)
			}
		}
	}

	a := newTestAgent(t, names[len(names)-1], "xapian")
	capW := machine.XeonE52650().IdlePowerW + 30.25
	rec := httptest.NewRecorder()
	a.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, RouteCap, strings.NewReader(`{"cap_w":`+strconv.FormatFloat(capW, 'f', -1, 64)+`}`)))
	want := httptest.NewRecorder()
	writeJSON(want, http.StatusOK, CapResponse{Agent: a.Name(), CapW: capW})
	if rec.Code != want.Code || rec.Body.String() != want.Body.String() {
		t.Fatalf("cap push = %d %q, want %d %q", rec.Code, rec.Body, want.Code, want.Body)
	}
	if got, w := rec.Header().Get("Content-Type"), want.Header().Get("Content-Type"); got != w {
		t.Fatalf("Content-Type = %q, want %q", got, w)
	}
}

// TestAgentRouteTable pins the agent's router: each of the six routes
// answers its method with 200 and the other with 405 and the handler's
// error body; an unknown path, or an unclean spelling of a route, gets
// net/http's 404.
func TestAgentRouteTable(t *testing.T) {
	a := newTestAgent(t, "a1", "xapian", "graph")
	routes := []struct{ path, method, body string }{
		{RouteAssign, http.MethodPost, `{"be":"graph"}`},
		{RouteCap, http.MethodPost, `{"cap_w":0}`},
		{RouteStats, http.MethodGet, ""},
		{RouteHealthz, http.MethodGet, ""},
		{RouteMetrics, http.MethodGet, ""},
		{RouteTrace, http.MethodGet, ""},
	}
	for _, rt := range routes {
		rec := httptest.NewRecorder()
		a.ServeHTTP(rec, httptest.NewRequest(rt.method, rt.path, strings.NewReader(rt.body)))
		if rec.Code != http.StatusOK {
			t.Errorf("%s %s = %d %q, want 200", rt.method, rt.path, rec.Code, rec.Body)
		}
		wrong := http.MethodGet
		if rt.method == http.MethodGet {
			wrong = http.MethodPost
		}
		rec = httptest.NewRecorder()
		a.ServeHTTP(rec, httptest.NewRequest(wrong, rt.path, strings.NewReader(rt.body)))
		if want := `{"error":"` + rt.method + ` required"}` + "\n"; rec.Code != http.StatusMethodNotAllowed || rec.Body.String() != want {
			t.Errorf("%s %s = %d %q, want 405 %q", wrong, rt.path, rec.Code, rec.Body, want)
		}
	}
	for _, path := range []string{"/", "/v1", "/v1/", "/v1/cap/", "/v1/caps", "/V1/CAP", "/metrics/", "//v1/cap", "/v1/./cap", "/v1/x/../cap"} {
		rec := httptest.NewRecorder()
		a.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"cap_w":0}`)))
		if rec.Code != http.StatusNotFound || rec.Body.String() != "404 page not found\n" {
			t.Errorf("POST %s = %d %q, want 404", path, rec.Code, rec.Body)
		}
	}
}

// TestControlBodyBound sends 1 MiB cap and assign bodies: each gets 413
// and leaves the agent's cap and assignment as they were. A body of
// exactly maxControlBody bytes is still read.
func TestControlBodyBound(t *testing.T) {
	a := newTestAgent(t, "a1", "xapian", "graph")
	if err := a.Assign("graph"); err != nil {
		t.Fatal(err)
	}
	capW := machine.XeonE52650().IdlePowerW + 30
	if err := a.SetCap(capW); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, body string }{
		{RouteCap, `{"cap_w":` + strings.Repeat("1", 1<<20) + `}`},
		{RouteAssign, `{"be":"` + strings.Repeat("x", 1<<20) + `"}`},
	} {
		rec := httptest.NewRecorder()
		a.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("1 MiB %s body = %d %.200q, want 413", tc.path, rec.Code, rec.Body)
		}
	}
	if got := a.CapW(); got != capW {
		t.Errorf("CapW = %v after refused push, want %v", got, capW)
	}
	if got := a.Assigned(); got != "graph" {
		t.Errorf("Assigned = %q after refused push, want graph", got)
	}

	edge := `{"cap_w":0}`
	edge += strings.Repeat(" ", maxControlBody-len(edge))
	for _, tc := range []struct {
		body string
		want int
	}{{edge, http.StatusOK}, {edge + " ", http.StatusRequestEntityTooLarge}} {
		rec := httptest.NewRecorder()
		a.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, RouteCap, strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%d-byte cap body = %d %q, want %d", len(tc.body), rec.Code, rec.Body, tc.want)
		}
	}
}

// TestCapAckReportsOwnCap races cap pushes against each other: every ack
// must report the cap its own request set, so applying a cap and reading
// back the enforced one must not interleave with another push.
func TestCapAckReportsOwnCap(t *testing.T) {
	a := newTestAgent(t, "a1", "xapian")
	idle := machine.XeonE52650().IdlePowerW
	const workers, pushes = 8, 1000
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < pushes; i++ {
				capW := idle + 1 + float64(g*pushes+i)/8
				rec := httptest.NewRecorder()
				body := `{"cap_w":` + strconv.FormatFloat(capW, 'f', -1, 64) + `}`
				a.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, RouteCap, strings.NewReader(body)))
				var ack CapResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || rec.Code != http.StatusOK || ack.CapW != capW {
					errs <- "push " + body + " acked " + strconv.Itoa(rec.Code) + " " + rec.Body.String()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
