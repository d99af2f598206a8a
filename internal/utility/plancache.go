package utility

import (
	"errors"
	"math"
	"strconv"

	"pocolo/internal/memo"
)

// Plans shares built Plans across every manager, host, trial, and matrix
// cell that evaluates the same (model, caps) pair — one grid walk per
// distinct pair per process instead of one per server manager. Keys
// fingerprint the full fitted parameter vector (like the cluster sweep
// memo), each entry builds once even when many goroutines race for a cold
// key, a construction error is kept with its key so hostile pairs are not
// re-walked, and the Plans themselves are immutable deep copies, so
// sharing is race-clean under internal/parallel fan-out. A full cache
// (4,096 pairs) is cleared wholesale.
var Plans = memo.New[string, *Plan](4096)

// SharedPlan returns the shared Plan for the (model, caps) pair from
// Plans, building it on first use. The returned Plan must be treated as
// read-only; it holds no references into the caller's model or caps.
func SharedPlan(m *Model, caps []int) (*Plan, error) {
	if m == nil {
		return nil, errors.New("utility: nil model")
	}
	p, _, err := Plans.Get(planKey(m, caps), func() (*Plan, error) { return NewPlan(m, caps) })
	return p, err
}

// ModelKey fingerprints a model's full fitted parameter vector as a
// string. It is the model half of the plan-cache key, exported so the
// cluster's delta-driven matrix builder can reuse the exact same
// fingerprint to decide whether a cell's model input changed between
// rounds.
//
// Two models get equal keys exactly when every field is bit-equal:
// floats are rendered as their IEEE-754 bits (so −0 and +0 differ, and
// equal NaN payloads match) and strings are length-prefixed (so names
// holding separators cannot alias). Keys are process-local equivalence
// classes, not a storage format: the encoding may change between
// versions and must not be persisted or compared across processes.
func ModelKey(m *Model) string {
	return string(AppendModelKey(make([]byte, 0, 192), m))
}

// AppendModelKey appends m's ModelKey encoding to dst, for callers that
// fold the model into a larger fingerprint without an intermediate
// string.
func AppendModelKey(dst []byte, m *Model) []byte {
	dst = AppendKeyString(dst, m.App)
	dst = strconv.AppendInt(dst, int64(len(m.Resources)), 10)
	dst = append(dst, '[')
	for _, r := range m.Resources {
		dst = AppendKeyString(dst, r)
	}
	dst = AppendKeyFloat(dst, m.Alpha0)
	dst = appendKeyFloats(dst, m.Alpha)
	dst = AppendKeyFloat(dst, m.PStatic)
	dst = appendKeyFloats(dst, m.P)
	dst = AppendKeyFloat(dst, m.PerfR2)
	dst = AppendKeyFloat(dst, m.PowerR2)
	dst = strconv.AppendInt(dst, int64(m.N), 10)
	return append(dst, ';')
}

// AppendKeyString appends s length-prefixed ("<len>:<bytes>"), the
// fingerprint encoding of a string field.
func AppendKeyString(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}

// AppendKeyFloat appends f's IEEE-754 bits in hex plus a terminator, the
// fingerprint encoding of a float field.
func AppendKeyFloat(dst []byte, f float64) []byte {
	dst = strconv.AppendUint(dst, math.Float64bits(f), 16)
	return append(dst, ',')
}

func appendKeyFloats(dst []byte, fs []float64) []byte {
	dst = strconv.AppendInt(dst, int64(len(fs)), 10)
	dst = append(dst, '[')
	for _, f := range fs {
		dst = AppendKeyFloat(dst, f)
	}
	return dst
}

func planKey(m *Model, caps []int) string {
	b := AppendModelKey(make([]byte, 0, 256), m)
	b = append(b, "caps"...)
	for _, c := range caps {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return string(b)
}
