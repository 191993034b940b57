package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name, its label set,
// and the sample value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseText reads the Prometheus text exposition format (the subset
// WritePrometheus emits: HELP/TYPE comments and simple sample lines).
// portusctl uses it to render live stats tables from /metrics.
func ParseText(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	} else if rest[i] == '{' {
		s.Name = rest[:i]
		n, err := parseLabels(rest[i+1:], s.Labels)
		if err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[i+1+n:])
	} else {
		s.Name = rest[:i]
		rest = strings.TrimSpace(rest[i+1:])
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(tok string) (float64, error) {
	// Drop an optional trailing timestamp.
	if i := strings.IndexByte(tok, ' '); i >= 0 {
		tok = tok[:i]
	}
	switch tok {
	case "+Inf":
		return inf(1), nil
	case "-Inf":
		return inf(-1), nil
	}
	return strconv.ParseFloat(tok, 64)
}

// parseLabels reads a label set from body, which starts just past its
// opening '{', into into. It returns how many bytes of body the set
// took, its closing '}' included. A '}' inside a quoted value is part
// of the value, so the set ends at the first '}' outside quotes.
func parseLabels(body string, into map[string]string) (int, error) {
	pos := 0
	for {
		for pos < len(body) && (body[pos] == ' ' || body[pos] == ',') {
			pos++
		}
		if pos == len(body) {
			return 0, fmt.Errorf("unterminated label set")
		}
		if body[pos] == '}' {
			return pos + 1, nil
		}
		eq := strings.IndexByte(body[pos:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("malformed label body %q", body[pos:])
		}
		key := strings.TrimSpace(body[pos : pos+eq])
		pos += eq + 1
		if pos == len(body) || body[pos] != '"' {
			return 0, fmt.Errorf("label %s value not quoted", key)
		}
		// Find the closing unescaped quote.
		end := -1
		for i := pos + 1; i < len(body); i++ {
			if body[i] == '\\' {
				i++
				continue
			}
			if body[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return 0, fmt.Errorf("unterminated label value for %s", key)
		}
		val, err := strconv.Unquote(body[pos : end+1])
		if err != nil {
			return 0, fmt.Errorf("label %s: %w", key, err)
		}
		into[key] = val
		pos = end + 1
	}
}

func inf(sign int) float64 { return math.Inf(sign) }

// HistogramQuantile estimates the q-quantile of one scraped histogram
// series from its <name>_bucket samples (cumulative le buckets): the
// series whose labels, le aside, are exactly match. Buckets of other
// series of the family are never merged in. It returns ok=false when
// the series has no buckets or no observations.
func HistogramQuantile(samples []Sample, name string, q float64, match ...Label) (float64, bool) {
	type bkt struct {
		le  float64
		cum uint64
	}
	var bkts []bkt
	for _, s := range samples {
		leStr, ok := s.Labels["le"]
		if s.Name != name+"_bucket" || !ok || !seriesIs(s.Labels, match) {
			continue
		}
		var le float64
		if leStr == "+Inf" {
			le = inf(1)
		} else {
			v, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				continue
			}
			le = v
		}
		bkts = append(bkts, bkt{le: le, cum: uint64(s.Value)})
	}
	if len(bkts) == 0 {
		return 0, false
	}
	sort.Slice(bkts, func(i, j int) bool { return bkts[i].le < bkts[j].le })
	var bounds []float64
	var cum []uint64
	for _, b := range bkts {
		if b.le >= inf(1) {
			continue
		}
		bounds = append(bounds, b.le)
		cum = append(cum, b.cum)
	}
	// Append the +Inf total (last sorted bucket).
	cum = append(cum, bkts[len(bkts)-1].cum)
	if cum[len(cum)-1] == 0 {
		return 0, false
	}
	return QuantileFromBuckets(bounds, cum, q), true
}

// seriesIs reports whether a bucket sample's labels are exactly match
// plus its le.
func seriesIs(labels map[string]string, match []Label) bool {
	if len(labels) != len(match)+1 {
		return false
	}
	for _, l := range match {
		if v, ok := labels[l.Key]; !ok || v != l.Value {
			return false
		}
	}
	return true
}
