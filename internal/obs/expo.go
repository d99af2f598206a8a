package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file renders a Snapshot in Prometheus text exposition format
// (0.0.4). It is the only writer behind the agent and controller
// /metrics endpoints: HELP/TYPE once per family before its samples,
// counter families ending in _total, histograms as cumulative _bucket
// series with strictly ascending le bounds closed by +Inf, and
// deterministic ordering throughout. Families may arrive in any order —
// handlers merge values computed at scrape time with a registry's
// snapshot — so each kind's series are grouped by family, families in
// order of first appearance, and the kinds follow one another: counters,
// gauges, duration histograms, value histograms. Duration histogram
// buckets with no new observations are elided (the cumulative contract
// allows any bound subset), so a 141-bucket ladder costs only as many
// lines as it has distinct observed values; value histograms render
// every bound.

// labelEscaper escapes a label value per the exposition format:
// backslash, double quote and newline. Every other byte, tab included,
// stays literal. A Replacer is safe for concurrent use, so one serves
// every scrape.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func renderLabels(labels []Label, extra string) string {
	if len(labels) == 0 && extra == "" {
		return ""
	}
	parts := make([]string, 0, len(labels)+1)
	for _, l := range labels {
		// The escaper already produces the exposition-format escaping;
		// wrapping with %q would escape a second time.
		parts = append(parts, l.Key+`="`+labelEscaper.Replace(l.Value)+`"`)
	}
	if extra != "" {
		parts = append(parts, extra)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// familyOrder returns the indices of n series reordered so each family's
// series are contiguous: families in order of first appearance, series
// in input order within their family.
func familyOrder(n int, name func(int) string) []int {
	rank := make(map[string]int)
	ranks := make([]int, n)
	order := make([]int, n)
	for i := range order {
		r, ok := rank[name(i)]
		if !ok {
			r = len(rank)
			rank[name(i)] = r
		}
		ranks[i], order[i] = r, i
	}
	sort.SliceStable(order, func(a, b int) bool { return ranks[order[a]] < ranks[order[b]] })
	return order
}

// WriteProm renders the snapshot as Prometheus exposition text, one
// header per family however the snapshot's series are ordered. A family
// name belongs to one kind. Histograms with no observations are omitted.
func WriteProm(w io.Writer, snap Snapshot) error {
	var err error
	printf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	header := func(last *string, name, typ, help string) {
		if *last == name {
			return
		}
		printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		*last = name
	}

	last := ""
	for _, i := range familyOrder(len(snap.Counters), func(i int) string { return snap.Counters[i].Name }) {
		c := snap.Counters[i]
		header(&last, c.Name, "counter", c.Help)
		printf("%s%s %g\n", c.Name, renderLabels(c.Labels, ""), c.Value)
	}
	last = ""
	for _, i := range familyOrder(len(snap.Gauges), func(i int) string { return snap.Gauges[i].Name }) {
		g := snap.Gauges[i]
		header(&last, g.Name, "gauge", g.Help)
		printf("%s%s %g\n", g.Name, renderLabels(g.Labels, ""), g.Value)
	}
	last = ""
	for _, i := range familyOrder(len(snap.Histograms), func(i int) string { return snap.Histograms[i].Name }) {
		h := snap.Histograms[i]
		if h.Count == 0 {
			continue
		}
		header(&last, h.Name, "histogram", h.Help)
		var cum uint64
		for i, c := range h.Counts {
			if c == 0 || i == numBuckets-1 {
				continue // overflow bucket is covered by the +Inf line
			}
			cum += c
			le := strconv.FormatFloat(BucketBound(i), 'g', -1, 64)
			printf("%s_bucket%s %g\n", h.Name, renderLabels(h.Labels, fmt.Sprintf("le=%q", le)), float64(cum))
		}
		printf("%s_bucket%s %g\n", h.Name, renderLabels(h.Labels, `le="+Inf"`), float64(h.Count))
		printf("%s_sum%s %g\n", h.Name, renderLabels(h.Labels, ""), h.SumSeconds)
		printf("%s_count%s %g\n", h.Name, renderLabels(h.Labels, ""), float64(h.Count))
	}
	last = ""
	for _, i := range familyOrder(len(snap.ValueHistograms), func(i int) string { return snap.ValueHistograms[i].Name }) {
		h := snap.ValueHistograms[i]
		if h.Count == 0 {
			continue
		}
		header(&last, h.Name, "histogram", h.Help)
		var cum uint64
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			le := strconv.FormatFloat(b, 'g', -1, 64)
			printf("%s_bucket%s %g\n", h.Name, renderLabels(h.Labels, fmt.Sprintf("le=%q", le)), float64(cum))
		}
		printf("%s_bucket%s %g\n", h.Name, renderLabels(h.Labels, `le="+Inf"`), float64(h.Count))
		printf("%s_sum%s %g\n", h.Name, renderLabels(h.Labels, ""), h.Sum)
		printf("%s_count%s %g\n", h.Name, renderLabels(h.Labels, ""), float64(h.Count))
	}
	return err
}
