package controlplane

import (
	"fmt"
	"strconv"
	"strings"
)

// This file holds the exposition linter and sample parser the metrics
// tests run over every /metrics scrape they take.

// lintExposition validates a full Prometheus text exposition against the
// subset of format 0.0.4 this package emits. It enforces that every
// sample is preceded by exactly one HELP and one TYPE header for its
// family, that declared types are known, that counter families end in
// _total, that sample names match the declared family (histograms may
// append _bucket/_sum/_count), that labels parse with exposition-format
// escaping, that every histogram bucket series is cumulative,
// non-decreasing, with strictly ascending le bounds, and closed by an
// le="+Inf" bucket equal to _count, and that a "# EOF" terminator (the
// OpenMetrics end marker, optional since writer-level lints see partial
// output) is the final non-empty line when present. The metrics golden
// test runs it over the agent and controller handlers' complete output,
// so any writer regression fails there.
func lintExposition(text string) error {
	type family struct {
		typ           string
		helped, typed bool
		sampled       bool
		count         map[string]float64 // _count value by non-le label signature
		lastBucket    map[string]float64 // last cumulative bucket by signature
		lastLE        map[string]float64 // last finite le bound by signature
		hasLE         map[string]bool
		sawInf        map[string]bool
	}
	families := make(map[string]*family)
	get := func(name string) *family {
		f := families[name]
		if f == nil {
			f = &family{
				count:      make(map[string]float64),
				lastBucket: make(map[string]float64),
				lastLE:     make(map[string]float64),
				hasLE:      make(map[string]bool),
				sawInf:     make(map[string]bool),
			}
			families[name] = f
		}
		return f
	}
	current := ""
	sawEOF := false
	for i, line := range strings.Split(text, "\n") {
		ln := i + 1
		if line == "" {
			continue
		}
		if sawEOF {
			return fmt.Errorf("line %d: content after the # EOF terminator", ln)
		}
		if line == "# EOF" {
			sawEOF = true
			continue
		}
		if name, ok := strings.CutPrefix(line, "# HELP "); ok {
			fields := strings.SplitN(name, " ", 2)
			if len(fields) != 2 || fields[1] == "" {
				return fmt.Errorf("line %d: HELP without text", ln)
			}
			f := get(fields[0])
			if f.helped {
				return fmt.Errorf("line %d: duplicate HELP for %s", ln, fields[0])
			}
			if f.sampled {
				return fmt.Errorf("line %d: HELP for %s after its samples", ln, fields[0])
			}
			f.helped = true
			current = fields[0]
			continue
		}
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fields := strings.SplitN(name, " ", 2)
			if len(fields) != 2 {
				return fmt.Errorf("line %d: TYPE without a type", ln)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown type %q", ln, fields[1])
			}
			f := get(fields[0])
			if f.typed {
				return fmt.Errorf("line %d: duplicate TYPE for %s", ln, fields[0])
			}
			if f.sampled {
				return fmt.Errorf("line %d: TYPE for %s after its samples", ln, fields[0])
			}
			if fields[1] == "counter" && !strings.HasSuffix(fields[0], "_total") {
				return fmt.Errorf("line %d: counter %s lacks the _total suffix", ln, fields[0])
			}
			f.typ = fields[1]
			f.typed = true
			current = fields[0]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", ln, err)
		}
		base := name
		suffix := ""
		if current != "" && name != current && strings.HasPrefix(name, current+"_") {
			base, suffix = current, strings.TrimPrefix(name, current)
		}
		f, ok := families[base]
		if !ok || base != current {
			return fmt.Errorf("line %d: sample %s outside its family's header block", ln, name)
		}
		if !f.helped || !f.typed {
			return fmt.Errorf("line %d: sample %s before both HELP and TYPE", ln, name)
		}
		f.sampled = true
		switch f.typ {
		case "histogram":
			sig := labelSignature(labels, "le")
			switch suffix {
			case "_bucket":
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("line %d: histogram bucket without le label", ln)
				}
				if value < f.lastBucket[sig] {
					return fmt.Errorf("line %d: bucket counts of %s{%s} decrease", ln, base, sig)
				}
				f.lastBucket[sig] = value
				if le == "+Inf" {
					f.sawInf[sig] = true
				} else if bound, err := strconv.ParseFloat(le, 64); err != nil {
					return fmt.Errorf("line %d: unparsable le bound %q", ln, le)
				} else if f.sawInf[sig] {
					return fmt.Errorf("line %d: finite bucket after le=\"+Inf\" in %s{%s}", ln, base, sig)
				} else if f.hasLE[sig] && bound <= f.lastLE[sig] {
					return fmt.Errorf("line %d: le bound %q of %s{%s} not strictly ascending (previous %g)", ln, le, base, sig, f.lastLE[sig])
				} else {
					f.lastLE[sig] = bound
					f.hasLE[sig] = true
				}
			case "_sum":
			case "_count":
				f.count[sig] = value
			default:
				return fmt.Errorf("line %d: histogram sample %s is not _bucket/_sum/_count", ln, name)
			}
		default:
			if suffix != "" {
				return fmt.Errorf("line %d: sample %s does not match family %s", ln, name, base)
			}
			if f.typ == "counter" && value < 0 {
				return fmt.Errorf("line %d: negative counter %s", ln, name)
			}
		}
	}
	for name, f := range families {
		if f.typ != "histogram" || !f.sampled {
			continue
		}
		for sig, last := range f.lastBucket {
			if !f.sawInf[sig] {
				return fmt.Errorf("histogram %s{%s} has no le=\"+Inf\" bucket", name, sig)
			}
			if c, ok := f.count[sig]; !ok {
				return fmt.Errorf("histogram %s{%s} has no _count", name, sig)
			} else if c != last {
				return fmt.Errorf("histogram %s{%s}: +Inf bucket %g != _count %g", name, sig, last, c)
			}
		}
	}
	return nil
}

// parseSample splits one exposition sample line into its name, decoded
// labels, and value, rejecting malformed names, labels, and escapes.
func parseSample(line string) (string, map[string]string, float64, error) {
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd <= 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name := line[:nameEnd]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[nameEnd:]
	labels := make(map[string]string)
	if rest[0] == '{' {
		end, err := parseLabels(rest, labels)
		if err != nil {
			return "", nil, 0, fmt.Errorf("sample %s: %w", name, err)
		}
		rest = rest[end:]
	}
	valueStr := strings.TrimSpace(rest)
	value, err := strconv.ParseFloat(valueStr, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("sample %s: unparsable value %q", name, valueStr)
	}
	return name, labels, value, nil
}

// parseLabels decodes a {k="v",...} label block starting at s[0] == '{',
// returning the index just past the closing brace. Escapes follow the
// exposition format: \\, \", and \n.
func parseLabels(s string, out map[string]string) (int, error) {
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("label without '='")
		}
		key := s[i : i+eq]
		if !validLabelName(key) {
			return 0, fmt.Errorf("invalid label name %q", key)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label %s: unquoted value", key)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("label %s: unterminated value", key)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, fmt.Errorf("label %s: dangling escape", key)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, fmt.Errorf("label %s: bad escape \\%c", key, s[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := out[key]; dup {
			return 0, fmt.Errorf("duplicate label %s", key)
		}
		out[key] = val.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// labelSignature renders a deterministic label-set key, skipping the
// named label (le, so all buckets of one series share a signature).
func labelSignature(labels map[string]string, skip string) string {
	parts := make([]string, 0, len(labels))
	for _, k := range sortedKeys(labels) {
		if k == skip {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%q", k, labels[k]))
	}
	return strings.Join(parts, ",")
}

func validMetricName(s string) bool {
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return s != ""
}

func validLabelName(s string) bool {
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return s != ""
}
