package telemetry

import (
	"math"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// le semantics: a value exactly at a bound lands in that bucket.
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0} {
		h.Observe(v)
	}
	cum := h.Cumulative()
	want := []uint64{2, 4, 6, 7} // le=1: {0.5,1}, le=2: +{1.5,2}, le=4: +{3,4}, +Inf: +{9}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative[%d] = %d, want %d (all: %v)", i, cum[i], want[i], cum)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("Count = %d, want 7", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.5+2+3+4+9; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40})
	// 100 observations uniform over (0, 40]: 25 per bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.4)
	}
	cases := []struct{ q, want float64 }{
		{0.25, 10},
		{0.5, 20},
		{0.99, 39.6},
		{1.0, 40},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 0.5 {
			t.Errorf("Quantile(%v) = %v, want ≈%v", c.q, got, c.want)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// Everything beyond the last finite bound clamps to it.
	h.Observe(100)
	h.Observe(200)
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("overflow quantile = %v, want clamp to 2", got)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram(nil)
	h.ObserveDuration(250 * time.Millisecond)
	if got := h.Sum(); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("Sum after ObserveDuration = %v, want 0.25", got)
	}
}

func TestNilMetricHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var h *Histogram
	c.Inc()
	c.Add(5)
	h.Observe(1)
	if c.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles must read as zero")
	}
}

func TestQuantileFromBucketsMatchesHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1, 1})
	for _, v := range []float64{0.0005, 0.004, 0.05, 0.05, 0.5} {
		h.Observe(v)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		direct := h.Quantile(q)
		fromBuckets := QuantileFromBuckets(h.Bounds(), h.Cumulative(), q)
		if math.Abs(direct-fromBuckets) > 1e-12 {
			t.Fatalf("q=%v: direct %v != from-buckets %v", q, direct, fromBuckets)
		}
	}
}

func TestDefLatencyBucketsIncreasing(t *testing.T) {
	b := DefLatencyBuckets()
	if len(b) < 10 {
		t.Fatalf("too few default buckets: %d", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not increasing at %d: %v", i, b)
		}
	}
}
