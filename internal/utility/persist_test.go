package utility

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := fitSynth(t)
	m3 := synth3(t)
	in := map[string]*Model{"two": m, "three": m3}
	var buf bytes.Buffer
	if err := SaveModels(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("loaded %d models", len(out))
	}
	for name, want := range in {
		got, ok := out[name]
		if !ok {
			t.Fatalf("missing %q", name)
		}
		if math.Abs(got.Alpha0-want.Alpha0)/want.Alpha0 > 1e-12 {
			t.Errorf("%s: α₀ %v vs %v", name, got.Alpha0, want.Alpha0)
		}
		for j := range want.Alpha {
			if got.Alpha[j] != want.Alpha[j] || got.P[j] != want.P[j] {
				t.Errorf("%s: coefficients differ at %d", name, j)
			}
		}
		if got.PerfR2 != want.PerfR2 || got.N != want.N {
			t.Errorf("%s: metadata differs", name)
		}
		// The loaded model behaves identically.
		r := make([]float64, len(want.Alpha))
		for j := range r {
			r[j] = 2
		}
		if got.Perf(r) != want.Perf(r) || got.Power(r) != want.Power(r) {
			t.Errorf("%s: loaded model predicts differently", name)
		}
	}
}

func TestSaveModelsValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveModels(&buf, nil); err == nil {
		t.Error("expected error for empty set")
	}
	if err := SaveModels(&buf, map[string]*Model{"x": nil}); err == nil {
		t.Error("expected error for nil model")
	}
	bad := *fitSynth(t)
	bad.Alpha = []float64{-1, 0.4}
	if err := SaveModels(&buf, map[string]*Model{"x": &bad}); err == nil {
		t.Error("expected error for invalid model")
	}
}

func TestLoadModelsValidation(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"garbage", "not json"},
		{"wrong format", `{"format":"other/v9","models":{}}`},
		{"empty set", `{"format":"pocolo-models/v1","models":{}}`},
		{"unknown field", `{"format":"pocolo-models/v1","models":{},"extra":1}`},
		{"invalid model", `{"format":"pocolo-models/v1","models":{"x":{"App":"x","Resources":["c"],"Alpha0":1,"Alpha":[-1],"P":[1]}}}`},
	}
	for _, c := range cases {
		if _, err := LoadModels(strings.NewReader(c.data)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestLoadModelsFillsAppName(t *testing.T) {
	m := fitSynth(t)
	m.App = ""
	var buf bytes.Buffer
	// Bypass SaveModels validation of the name by saving a valid model and
	// blanking App in the JSON: easier to just save (App "" is valid) —
	// Validate does not require App.
	if err := SaveModels(&buf, map[string]*Model{"synth": m}); err != nil {
		t.Fatal(err)
	}
	out, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out["synth"].App != "synth" {
		t.Errorf("App = %q, want filled from the key", out["synth"].App)
	}
}
