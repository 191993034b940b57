package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ops_total", "ops", L("kind", "read"))
	b := r.Counter("ops_total", "ops", L("kind", "read"))
	c := r.Counter("ops_total", "ops", L("kind", "write"))
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	if a == c {
		t.Fatal("different labels must return different counters")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatalf("shared handle value = %d, want 2", b.Value())
	}
}

func TestRegistryPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("portus_checkpoints_total", "completed checkpoints").Add(3)
	r.GaugeFunc("portus_queue_depth", "jobs waiting", func() float64 { return 2 })
	r.CounterFunc("portus_flush_bytes_total", "flushed bytes", func() float64 { return 4096 })
	h := r.Histogram("portus_checkpoint_seconds", "e2e latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP portus_checkpoints_total completed checkpoints",
		"# TYPE portus_checkpoints_total counter",
		"portus_checkpoints_total 3",
		"# TYPE portus_queue_depth gauge",
		"portus_queue_depth 2",
		"portus_flush_bytes_total 4096",
		"# TYPE portus_checkpoint_seconds histogram",
		`portus_checkpoint_seconds_bucket{le="0.1"} 1`,
		`portus_checkpoint_seconds_bucket{le="1"} 2`,
		`portus_checkpoint_seconds_bucket{le="+Inf"} 3`,
		"portus_checkpoint_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must be sorted by name.
	if strings.Index(out, "portus_checkpoint_seconds") > strings.Index(out, "portus_queue_depth") {
		t.Error("families not sorted by name")
	}
	// The output must parse back.
	samples, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ParseText on own output: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples parsed")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c_total", "c").Inc()
				r.GaugeFunc("g", "g", func() float64 { return float64(g) }, L("worker", string(rune('a'+g))))
				r.Histogram("h_seconds", "h", nil, L("worker", string(rune('a'+g)))).Observe(float64(i) * 1e-4)
				if i%50 == 0 {
					var buf bytes.Buffer
					r.WritePrometheus(&buf)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c_total", "c").Value(); got != 8*200 {
		t.Fatalf("counter = %d, want %d", got, 8*200)
	}
	if got := r.Histogram("h_seconds", "h", nil, L("worker", "a")).Count(); got != 200 {
		t.Fatalf("histogram count = %d, want 200", got)
	}
}

func TestParseTextSamples(t *testing.T) {
	in := `# HELP x help text
# TYPE x counter
x 42
y{a="1",b="two words"} 3.5
z_bucket{le="+Inf"} 7
`
	samples, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("parsed %d samples, want 3", len(samples))
	}
	if samples[0].Name != "x" || samples[0].Value != 42 {
		t.Fatalf("sample 0 = %+v", samples[0])
	}
	if samples[1].Labels["b"] != "two words" || samples[1].Value != 3.5 {
		t.Fatalf("sample 1 = %+v", samples[1])
	}
	if samples[2].Labels["le"] != "+Inf" {
		t.Fatalf("sample 2 = %+v", samples[2])
	}
}

func TestHistogramQuantileFromSamples(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "lat", []float64{0.01, 0.1, 1})
	for i := 0; i < 100; i++ {
		h.Observe(0.05) // all in the (0.01, 0.1] bucket
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	samples, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p50, ok := HistogramQuantile(samples, "lat_seconds", 0.5)
	if !ok {
		t.Fatal("no histogram found in samples")
	}
	if p50 < 0.01 || p50 > 0.1 {
		t.Fatalf("p50 = %v, want within (0.01, 0.1]", p50)
	}
	if _, ok := HistogramQuantile(samples, "missing_seconds", 0.5); ok {
		t.Fatal("quantile of missing histogram must report !ok")
	}
}

// TestHistogramQuantileReadsOneSeries: the quantile of one series of a
// labeled family must come from that series' buckets alone, not from
// the buckets of every label set merged into one list.
func TestHistogramQuantileReadsOneSeries(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.25, 0.5, 1, 2, 4}
	fast := r.Histogram("lat_seconds", "lat", bounds, L("op", "fast"))
	slow := r.Histogram("lat_seconds", "lat", bounds, L("op", "slow"))
	for i := 0; i < 10; i++ {
		fast.Observe(0.5)
	}
	for i := 0; i < 3; i++ {
		slow.Observe(3)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	samples, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		op   string
		h    *Histogram
		want float64
	}{{"fast", fast, 0.5}, {"slow", slow, 3}} {
		got, ok := HistogramQuantile(samples, "lat_seconds", 0.5, L("op", tc.op))
		if !ok {
			t.Fatalf("op=%s: series not found", tc.op)
		}
		if direct := tc.h.Quantile(0.5); got != direct {
			t.Errorf("op=%s: scraped p50 = %v, the series' own p50 = %v", tc.op, got, direct)
		}
		if lo, hi := tc.want/2, tc.want*2; got < lo || got > hi {
			t.Errorf("op=%s: p50 = %v, want within (%v, %v]", tc.op, got, lo, hi)
		}
	}
	if _, ok := HistogramQuantile(samples, "lat_seconds", 0.5); ok {
		t.Error("a family with only labeled series has no unlabeled series to read")
	}
}

// TestParseTextRoundTripsLabelValues: label values carry model names,
// so every byte WritePrometheus escapes — and a '}' or ',' it leaves
// as is — must parse back to the value written.
func TestParseTextRoundTripsLabelValues(t *testing.T) {
	values := []string{`a}b`, `q"uote`, `back\slash`, `com,ma`, `x="}",y`, `}`}
	r := NewRegistry()
	for i, v := range values {
		r.Counter("portus_x_total", "x", L("model", v)).Add(int64(i + 1))
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	samples, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, buf.String())
	}
	if len(samples) != len(values) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(values))
	}
	for i, s := range samples {
		if s.Name != "portus_x_total" || s.Labels["model"] != values[i] || s.Value != float64(i+1) {
			t.Errorf("sample %d = %+v, want model %q value %d", i, s, values[i], i+1)
		}
	}
	if _, err := ParseText(strings.NewReader(`portus_x_total{model="a}b" 1` + "\n")); err == nil {
		t.Error("a label set without its closing brace must not parse")
	}
}

// TestWritePrometheusSamplesOutsideFamilyLock: a func series may sample
// state whose lock holder registers series in the same family (the
// scheduler registers a lane's depth gauge under its own mutex, and the
// gauge reads that mutex). Sampling under the family lock deadlocks;
// this sampler registers a series of its own family to prove it is not.
func TestWritePrometheusSamplesOutsideFamilyLock(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("depth", "d", func() float64 {
		r.GaugeFunc("depth", "d", func() float64 { return 0 }, L("model", "late"))
		return 1
	}, L("model", "first"))
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		r.WritePrometheus(&buf)
		done <- buf.String()
	}()
	select {
	case out := <-done:
		if !strings.Contains(out, `depth{model="first"} 1`) {
			t.Fatalf("exposition missing the sampled series:\n%s", out)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WritePrometheus deadlocked sampling a func series under the family lock")
	}
}
