package utility

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// keyTestModel draws a model from small value pools holding the values a
// fingerprint can get wrong:
// −0 and +0, adjacent floats, one NaN payload, and names holding
// spaces, '|' and ']' (which %+v renders ambiguously).
func keyTestModel(r *rand.Rand) *Model {
	floats := []float64{0, math.Copysign(0, -1), 1, math.Nextafter(1, 2), 0.5, math.NaN()}
	names := []string{"", "a", "a b", "a|b", "a]", "b"}
	resources := [][]string{nil, {"a b"}, {"a", "b"}, {"cores", "llc-ways"}, {"a]", "b"}}
	f := func() float64 { return floats[r.Intn(len(floats))] }
	fs := func() []float64 {
		out := make([]float64, r.Intn(3))
		for i := range out {
			out[i] = f()
		}
		return out
	}
	return &Model{
		App:       names[r.Intn(len(names))],
		Resources: append([]string(nil), resources[r.Intn(len(resources))]...),
		Alpha0:    f(),
		Alpha:     fs(),
		PStatic:   f(),
		P:         fs(),
		PerfR2:    f(),
		PowerR2:   f(),
		N:         r.Intn(2),
	}
}

// bitEqual reports whether every field of a and b is equal, floats
// compared by their IEEE-754 bits.
func bitEqual(a, b *Model) bool {
	floatsEq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if a.App != b.App || len(a.Resources) != len(b.Resources) || a.N != b.N {
		return false
	}
	for i := range a.Resources {
		if a.Resources[i] != b.Resources[i] {
			return false
		}
	}
	return floatsEq([]float64{a.Alpha0, a.PStatic, a.PerfR2, a.PowerR2}, []float64{b.Alpha0, b.PStatic, b.PerfR2, b.PowerR2}) &&
		floatsEq(a.Alpha, b.Alpha) && floatsEq(a.P, b.P)
}

// TestModelKeyExact is the key's contract: equal keys exactly when every
// field is bit-equal. Against the %+v rendering it replaced, the key is
// at least as fine — equal keys always render equal — and strictly finer
// only where %+v conflates distinct models (a name with a space against
// two names, NaN payloads); bit-equal models, %+v-equal as well, always
// share a key.
func TestModelKeyExact(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var models []*Model
	for b := 0; b < 20; b++ {
		base := keyTestModel(r)
		models = append(models, base)
		// Variants that each redraw one field of the base, so pairs
		// differing in a single field — −0 against +0, one resource
		// named "a b" against two — are common.
		for v := 0; v < 15; v++ {
			m := *base
			m.Resources = append([]string(nil), base.Resources...)
			m.Alpha = append([]float64(nil), base.Alpha...)
			m.P = append([]float64(nil), base.P...)
			redraw := keyTestModel(r)
			switch r.Intn(5) {
			case 0:
				m.App = redraw.App
			case 1:
				m.Resources = redraw.Resources
			case 2:
				m.Alpha0 = redraw.Alpha0
			case 3:
				m.P = redraw.P
			case 4:
				m.PowerR2 = redraw.PowerR2
			}
			models = append(models, &m)
		}
	}
	keys := make([]string, len(models))
	renders := make([]string, len(models))
	for i, m := range models {
		keys[i] = ModelKey(m)
		renders[i] = fmt.Sprintf("%+v", *m)
	}
	var equalPairs, finerPairs int
	for i := range models {
		for j := i + 1; j < len(models); j++ {
			keyEq := keys[i] == keys[j]
			if bitEq := bitEqual(models[i], models[j]); keyEq != bitEq {
				t.Fatalf("key equality %v but bit equality %v:\n%+v\n%+v", keyEq, bitEq, *models[i], *models[j])
			}
			if keyEq && renders[i] != renders[j] {
				t.Fatalf("equal keys for models %%+v tells apart:\n%s\n%s", renders[i], renders[j])
			}
			if keyEq {
				equalPairs++
			} else if renders[i] == renders[j] {
				finerPairs++
			}
		}
	}
	if equalPairs < 50 || finerPairs == 0 {
		t.Fatalf("generator too weak: %d equal-key pairs, %d pairs only the key tells apart", equalPairs, finerPairs)
	}
}

// TestModelKeyCoversEveryField is the reflect guard: perturbing any one
// field of Model must change its key. A field added to Model without a
// matching ModelKey term fails here — or, for a kind this test cannot
// perturb, fails asking for both to be extended.
func TestModelKeyCoversEveryField(t *testing.T) {
	base := Model{
		App: "img-dnn", Resources: []string{"cores", "llc-ways"},
		Alpha0: 2, Alpha: []float64{0.4, 0.2}, PStatic: 30, P: []float64{9, 1},
		PerfR2: 0.9, PowerR2: 0.8, N: 20,
	}
	want := ModelKey(&base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		m := base
		m.Resources = append([]string(nil), base.Resources...)
		m.Alpha = append([]float64(nil), base.Alpha...)
		m.P = append([]float64(nil), base.P...)
		f := reflect.ValueOf(&m).Elem().Field(i)
		switch {
		case f.Kind() == reflect.String:
			f.SetString(f.String() + "x")
		case f.Kind() == reflect.Float64:
			f.SetFloat(math.Nextafter(f.Float(), math.Inf(1)))
		case f.Kind() == reflect.Int:
			f.SetInt(f.Int() + 1)
		case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Float64:
			f.Index(0).SetFloat(math.Nextafter(f.Index(0).Float(), math.Inf(1)))
		case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.String:
			f.Index(0).SetString(f.Index(0).String() + "x")
		default:
			t.Fatalf("Model.%s has kind %s: extend ModelKey and this guard", typ.Field(i).Name, f.Type())
		}
		if ModelKey(&m) == want {
			t.Errorf("ModelKey ignores Model.%s", typ.Field(i).Name)
		}
	}
}
