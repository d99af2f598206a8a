package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"pocolo/internal/machine"
	"pocolo/internal/utility"
)

// This file is the poll transport's probe decoder. A GET /v1/stats body
// is ~2 KB of JSON, three quarters of it the machine config, candidate
// list and fitted models, which change only when an agent refits. The
// fast path parses the live scalars straight from the body bytes and
// reuses the agent's previously decoded sections whenever their bytes
// are unchanged, so a steady-state probe decodes without allocating. The
// one section that moves in steady state, be_ops_by on an agent running
// best-effort work, is parsed in place into a fresh map, and the agent's
// cache is kept.
//
// encoding/json stays the reference. The fast path accepts only a strict
// subset: one object of known, exact-case, unrepeated keys; scalar
// strings of printable ASCII without escapes; numbers that match the JSON
// grammar and parse in range; and nothing but whitespace after the
// object. Anything else is declined, and the whole body is decoded by
// json.Decoder into a fresh value, exactly as the controller always did.
// So the probe's result is the same for every body, which FuzzDecodeStats
// checks against encoding/json.

// Indexes of the five sections a statsCache keeps raw bytes for.
const (
	secMachine = iota
	secBECandidates
	secBEOpsBy
	secLCModel
	secBEModels
	numStatsSections
)

// statsCache is what the fast path remembers of one agent's last accepted
// body: the raw bytes of each section it decoded and, in vals, the decoded
// sections and scalar strings. It is immutable once a decode returns it; a
// later decode that sees a change, other than a moved be_ops_by (section),
// builds a new one. The decoded maps, slices and models are shared
// read-only with every StatsResponse built from them, so successive
// reports of an agent (the controller's a.last) hold the same
// *utility.Model pointers while the models are unchanged. Nothing in the
// controller writes through them: it only reads reported models and
// maps, as it already does for the stream transport's shared snapshots.
type statsCache struct {
	raw  [numStatsSections][]byte // each section's JSON value; nil until seen
	vals StatsResponse            // the sections and strings last decoded
}

// sameSection reports whether next reuses c's decoded section k: a
// decode keeps the bytes of every section it did not decode anew.
func (c *statsCache) sameSection(next *statsCache, k int) bool {
	if c == nil || next == nil {
		return false
	}
	a, b := c.raw[k], next.raw[k]
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// statsField is one top-level key of a /v1/stats body and the
// StatsResponse field it decodes into; exactly one accessor is set. The
// parser's methods dispatch on them rather than taking the parser through
// a function value, which would move the parser to the heap.
type statsField struct {
	key     string
	float   func(*StatsResponse) *float64
	int     func(*StatsResponse) *int
	bool    func(*StatsResponse) *bool
	string  func(*StatsResponse) *string
	section *statsSection
}

// statsSection is a section's slot k in statsCache.raw and its codec.
type statsSection struct {
	k      int
	decode func(raw []byte, s *StatsResponse) error
	copy   func(dst, src *StatsResponse)
}

// statsFields lists every StatsResponse key the fast path decodes: the 18
// hbFields scalars, agent, lc, peak_load, provisioned_power_w, planner_on
// and the five sections. A field's index is its bit in the parser's seen
// mask. A StatsResponse field added without an entry here sends every
// probe down the fallback; TestDecodeStatsCoversEveryField catches that.
var statsFields = [...]statsField{
	{key: "agent", string: func(s *StatsResponse) *string { return &s.Agent }},
	sectionField("machine", secMachine, func(s *StatsResponse) *machine.Config { return &s.Machine }),
	{key: "lc", string: func(s *StatsResponse) *string { return &s.LC }},
	{key: "peak_load", float: func(s *StatsResponse) *float64 { return &s.PeakLoad }},
	{key: "provisioned_power_w", float: func(s *StatsResponse) *float64 { return &s.ProvisionedPowerW }},
	{key: "offered_load_rps", float: func(s *StatsResponse) *float64 { return &s.OfferedLoad }},
	{key: "slack", float: func(s *StatsResponse) *float64 { return &s.Slack }},
	{key: "p99_ms", float: func(s *StatsResponse) *float64 { return &s.P99Ms }},
	{key: "power_w", float: func(s *StatsResponse) *float64 { return &s.PowerW }},
	{key: "cap_w", float: func(s *StatsResponse) *float64 { return &s.CapW }},
	{key: "be_throughput_ops", float: func(s *StatsResponse) *float64 { return &s.BEThroughput }},
	{key: "assigned_be", string: func(s *StatsResponse) *string { return &s.AssignedBE }},
	sectionField("be_candidates", secBECandidates, func(s *StatsResponse) *[]string { return &s.BECandidates }),
	{key: "lc_ops_total", float: func(s *StatsResponse) *float64 { return &s.LCOps }},
	{key: "be_ops_total", float: func(s *StatsResponse) *float64 { return &s.BEOps }},
	sectionField("be_ops_by", secBEOpsBy, func(s *StatsResponse) *map[string]float64 { return &s.BEOpsBy }),
	{key: "control_ticks", int: func(s *StatsResponse) *int { return &s.ControlTicks }},
	{key: "cap_throttles", int: func(s *StatsResponse) *int { return &s.CapThrottles }},
	{key: "cap_restores", int: func(s *StatsResponse) *int { return &s.CapRestores }},
	{key: "planner_hits", int: func(s *StatsResponse) *int { return &s.PlannerHits }},
	{key: "planner_warm", int: func(s *StatsResponse) *int { return &s.PlannerWarm }},
	{key: "planner_fallbacks", int: func(s *StatsResponse) *int { return &s.PlannerFallbacks }},
	{key: "be_throttles", int: func(s *StatsResponse) *int { return &s.BEThrottles }},
	{key: "be_restores", int: func(s *StatsResponse) *int { return &s.BERestores }},
	{key: "planner_on", bool: func(s *StatsResponse) *bool { return &s.PlannerOn }},
	{key: "sim_seconds", float: func(s *StatsResponse) *float64 { return &s.SimSec }},
	sectionField("lc_model", secLCModel, func(s *StatsResponse) **utility.Model { return &s.LCModel }),
	sectionField("be_models", secBEModels, func(s *StatsResponse) *map[string]*utility.Model { return &s.BEModels }),
}

// The seen mask is a uint32.
var _ [32 - len(statsFields)]struct{}

// statsFieldIndex maps a key to its statsFields index.
var statsFieldIndex = func() map[string]int {
	m := make(map[string]int, len(statsFields))
	for i, f := range statsFields {
		m[f.key] = i
	}
	return m
}()

// statsBufs recycles the buffers probe bodies are read into.
var statsBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readStats reads one /v1/stats body into a pooled buffer and decodes it
// (decodeStats), reporting whether the fast path took it. The body is
// bounded like a stream snapshot, at maxHeartbeatBlob, so one misbehaving
// agent cannot make the controller buffer an arbitrarily large value.
// Nothing decoded refers to the buffer: strings and raw section bytes are
// copied out of it.
func (c *Controller) readStats(body io.Reader, cache *statsCache, out *StatsResponse) (*statsCache, bool, error) {
	buf := statsBufs.Get().(*bytes.Buffer)
	defer statsBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(io.LimitReader(body, maxHeartbeatBlob+1)); err != nil {
		return cache, false, err
	}
	if buf.Len() > maxHeartbeatBlob {
		return cache, false, fmt.Errorf("stats body exceeds the %d-byte limit", maxHeartbeatBlob)
	}
	next, fast, err := decodeStats(buf.Bytes(), cache, out)
	if c.obs != nil {
		if fast {
			c.obs.pollFast.Inc()
		} else {
			c.obs.pollFallback.Inc()
		}
	}
	return next, fast, err
}

// decodeStats decodes one GET /v1/stats body into *out, replacing its
// contents. prev is the agent's cache from its last fast-path decode (nil
// for none); decodeStats never writes to it. It returns the cache for the
// agent's next probe and whether the fast path served the body. A body
// the fast path declines goes through json.Decoder into a zero
// StatsResponse and leaves the cache as it was.
func decodeStats(body []byte, prev *statsCache, out *StatsResponse) (next *statsCache, fast bool, err error) {
	*out = StatsResponse{}
	p := statsParser{b: body, prev: prev, next: prev}
	if p.object(out) {
		return p.next, true, nil
	}
	*out = StatsResponse{}
	return prev, false, json.NewDecoder(bytes.NewReader(body)).Decode(out)
}

// statsParser is the fast path's cursor over one body.
type statsParser struct {
	b    []byte
	i    int
	seen uint32 // statsFields already parsed, by index
	// prev is the cache the decode started from; next is prev until the
	// first change, then a private copy that collects the changes.
	prev, next *statsCache
}

// own returns the cache the parse may write, copying prev on first use.
func (p *statsParser) own() *statsCache {
	if p.next == p.prev {
		c := new(statsCache)
		if p.prev != nil {
			*c = *p.prev
		}
		p.next = c
	}
	return p.next
}

// object parses the whole body: one object, then only whitespace.
func (p *statsParser) object(s *StatsResponse) bool {
	p.ws()
	if !p.eat('{') {
		return false
	}
	p.ws()
	if p.eat('}') {
		return p.end()
	}
	for k := -1; ; {
		key, ok := p.plainString()
		if !ok {
			return false
		}
		// Agents send the keys in statsFields order, so try the key
		// after the last one before the map.
		if k++; k >= len(statsFields) || string(key) != statsFields[k].key {
			if k, ok = statsFieldIndex[string(key)]; !ok {
				return false
			}
		}
		if p.seen&(1<<k) != 0 {
			return false
		}
		p.seen |= 1 << k
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
		if !p.value(&statsFields[k], s) {
			return false
		}
		p.ws()
		if p.eat('}') {
			return p.end()
		}
		if !p.eat(',') {
			return false
		}
		p.ws()
	}
}

func (p *statsParser) end() bool {
	p.ws()
	return p.i == len(p.b)
}

func (p *statsParser) ws() { p.i = skipWS(p.b, p.i) }

func (p *statsParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// plainString reads a string of printable ASCII without escapes and
// returns its contents; any other string is declined.
func (p *statsParser) plainString() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number reads a literal matching the JSON number grammar.
func (p *statsParser) number() ([]byte, bool) {
	end, ok := scanNumber(p.b, p.i)
	if !ok {
		return nil, false
	}
	num := p.b[p.i:end]
	p.i = end
	return num, true
}

// literal reads the literal word if it is next.
func (p *statsParser) literal(word string) bool {
	end, ok := skipWord(p.b, p.i, word)
	if ok {
		p.i = end
	}
	return ok
}

// sectionField wires a section: decode unmarshals raw bytes into the
// field of s, which is zero, exactly as json.Decoder decodes the field
// into a zero StatsResponse; copy moves the decoded value between a
// report and a cache.
func sectionField[T any](key string, k int, field func(*StatsResponse) *T) statsField {
	return statsField{key: key, section: &statsSection{
		k:      k,
		decode: func(raw []byte, s *StatsResponse) error { return json.Unmarshal(raw, field(s)) },
		copy:   func(dst, src *StatsResponse) { *field(dst) = *field(src) },
	}}
}

// value parses the value at the cursor into f's field of s.
func (p *statsParser) value(f *statsField, s *StatsResponse) bool {
	switch {
	case f.float != nil:
		// string(num) converts on the stack for literals up to 32 bytes,
		// so the parse does not allocate.
		num, ok := p.number()
		if !ok {
			return false
		}
		v, err := strconv.ParseFloat(string(num), 64)
		*f.float(s) = v
		return err == nil
	case f.int != nil:
		// encoding/json takes only an integer literal within int's range.
		num, ok := p.number()
		if !ok {
			return false
		}
		v, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
		*f.int(s) = int(v)
		return err == nil
	case f.bool != nil:
		switch {
		case p.literal("true"):
			*f.bool(s) = true
		case p.literal("false"):
			*f.bool(s) = false
		default:
			return false
		}
		return true
	case f.string != nil:
		return p.str(f.string, s)
	}
	return p.section(f.section, s)
}

// str parses a plain string, reusing the cached string when the bytes
// are unchanged so that only a new value allocates.
func (p *statsParser) str(field func(*StatsResponse) *string, s *StatsResponse) bool {
	b, ok := p.plainString()
	if !ok {
		return false
	}
	if p.next != nil && string(b) == *field(&p.next.vals) {
		*field(s) = *field(&p.next.vals)
		return true
	}
	v := string(b)
	*field(s) = v
	*field(&p.own().vals) = v
	return true
}

// section reuses the cached value of the section when the body at the
// cursor starts with its cached bytes. A cached section is an object,
// array or null (anything else fails json.Unmarshal into these types and
// is never cached), and all three are self-delimiting, so a prefix match
// is the whole value; the parser still requires a ',' or '}' after it.
// Otherwise be_ops_by, which moves on every probe of an agent running
// best-effort work, is parsed in place (opsBy) and kept out of the cache
// unless this decode already copies it. Any other value is skip-scanned
// with full validation, decoded, and its bytes are copied into the cache.
func (p *statsParser) section(sec *statsSection, s *StatsResponse) bool {
	if c := p.next; c != nil && c.raw[sec.k] != nil && bytes.HasPrefix(p.b[p.i:], c.raw[sec.k]) {
		p.i += len(c.raw[sec.k])
		sec.copy(s, &c.vals)
		return true
	}
	if sec.k == secBEOpsBy {
		start := p.i
		if p.opsBy(&s.BEOpsBy) {
			if c := p.next; c != p.prev {
				c.raw[sec.k] = bytes.Clone(p.b[start:p.i])
				sec.copy(&c.vals, s)
			}
			return true
		}
		s.BEOpsBy, p.i = nil, start
	}
	end, ok := skipValue(p.b, p.i)
	if !ok || sec.decode(p.b[p.i:end], s) != nil {
		return false
	}
	c := p.own()
	c.raw[sec.k] = bytes.Clone(p.b[p.i:end])
	sec.copy(&c.vals, s)
	p.i = end
	return true
}

// opsBy parses be_ops_by into a fresh map when it is null or an object of
// plain-string keys and JSON numbers, as encoding/json decodes it into a
// zero map: null leaves it nil, a repeated key keeps its last value. It
// declines anything else, which section then hands to encoding/json.
func (p *statsParser) opsBy(m *map[string]float64) bool {
	if p.literal("null") {
		return true
	}
	if !p.eat('{') {
		return false
	}
	*m = map[string]float64{}
	if p.ws(); p.eat('}') {
		return true
	}
	for {
		key, ok := p.plainString()
		if !ok {
			return false
		}
		if p.ws(); !p.eat(':') {
			return false
		}
		p.ws()
		num, ok := p.number()
		if !ok {
			return false
		}
		v, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return false
		}
		(*m)[string(key)] = v
		if p.ws(); p.eat('}') {
			return true
		}
		if !p.eat(',') {
			return false
		}
		p.ws()
	}
}

// maxSkipDepth bounds the nesting skipValue follows; deeper values are
// declined to the fallback, which applies encoding/json's own limit.
const maxSkipDepth = 64

// skipValue validates the JSON value starting at b[i] and returns the
// index just past it. Strings may hold any byte but controls, as
// encoding/json accepts; escapes must be valid.
func skipValue(b []byte, i int) (int, bool) {
	var objs uint64 // bit d: the container at depth d is an object
	depth := 0
	ok := true
	for {
		// A value starts at i.
		i = skipWS(b, i)
		if i >= len(b) {
			return 0, false
		}
		switch c := b[i]; {
		case c == '{' || c == '[':
			if depth == maxSkipDepth {
				return 0, false
			}
			objs &^= 1 << depth
			closer := byte(']')
			if c == '{' {
				objs |= 1 << depth
				closer = '}'
			}
			depth++
			if i = skipWS(b, i+1); i < len(b) && b[i] == closer {
				i++
				depth--
				break
			}
			if c == '{' {
				if i, ok = skipKey(b, i); !ok {
					return 0, false
				}
			}
			continue
		case c == '"':
			i, ok = skipString(b, i)
		case c == '-' || '0' <= c && c <= '9':
			i, ok = scanNumber(b, i)
		case c == 't':
			i, ok = skipWord(b, i, "true")
		case c == 'f':
			i, ok = skipWord(b, i, "false")
		case c == 'n':
			i, ok = skipWord(b, i, "null")
		default:
			return 0, false
		}
		if !ok {
			return 0, false
		}
		// A value ended at i: close containers until the next element.
		for {
			if depth == 0 {
				return i, true
			}
			if i = skipWS(b, i); i >= len(b) {
				return 0, false
			}
			obj := objs&(1<<(depth-1)) != 0
			if b[i] == ',' {
				i++
				if obj {
					if i, ok = skipKey(b, skipWS(b, i)); !ok {
						return 0, false
					}
				}
				break
			}
			if obj && b[i] == '}' || !obj && b[i] == ']' {
				i++
				depth--
				continue
			}
			return 0, false
		}
	}
}

// skipKey skips an object key and its colon.
func skipKey(b []byte, i int) (int, bool) {
	if i >= len(b) || b[i] != '"' {
		return 0, false
	}
	i, ok := skipString(b, i)
	if !ok {
		return 0, false
	}
	if i = skipWS(b, i); i >= len(b) || b[i] != ':' {
		return 0, false
	}
	return i + 1, true
}

// skipString skips the string starting at the quote b[i].
func skipString(b []byte, i int) (int, bool) {
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, true
		case c < 0x20:
			return 0, false
		case c == '\\':
			i++
			if i >= len(b) {
				return 0, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) {
					return 0, false
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return 0, false
					}
				}
				i += 4
			default:
				return 0, false
			}
		}
	}
	return 0, false
}

func skipWord(b []byte, i int, word string) (int, bool) {
	if len(b)-i < len(word) || string(b[i:i+len(word)]) != word {
		return 0, false
	}
	return i + len(word), true
}

// scanNumber returns the end of the number literal at b[i], checking it
// against the JSON grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
// strconv accepts more (a leading '+', hex, "Inf"), so the check comes
// first.
func scanNumber(b []byte, i int) (int, bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	return i, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
