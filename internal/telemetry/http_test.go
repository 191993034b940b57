package telemetry_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/telemetry"
)

func newAdminServer(t *testing.T) (*httptest.Server, *telemetry.Registry, *telemetry.TraceRing) {
	t.Helper()
	reg := telemetry.NewRegistry()
	ring := telemetry.NewTraceRing(8)
	srv := httptest.NewServer(telemetry.AdminHandler(reg, ring, nil, nil))
	t.Cleanup(srv.Close)
	return srv, reg, ring
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestMetricsEndpointExpositionFormat(t *testing.T) {
	srv, reg, _ := newAdminServer(t)
	reg.Counter("portus_daemon_registered_total", "completed checkpoints").Add(5)
	reg.Histogram("portus_checkpoint_seconds", "latency", []float64{0.1, 1}).Observe(0.2)

	code, body, hdr := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	samples, err := telemetry.ParseText(strings.NewReader(body))
	if err != nil {
		t.Fatalf("exposition did not parse: %v\n%s", err, body)
	}
	found := false
	for _, s := range samples {
		if s.Name == "portus_daemon_registered_total" && s.Value == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("counter not in exposition:\n%s", body)
	}
	if _, ok := telemetry.HistogramQuantile(samples, "portus_checkpoint_seconds", 0.5); !ok {
		t.Fatalf("histogram not scrapeable:\n%s", body)
	}
}

func TestTracesEndpointJSON(t *testing.T) {
	srv, _, ring := newAdminServer(t)
	tr := telemetry.NewTrace("checkpoint", "bert", 3, 0)
	sp := tr.Root.Child("pull", 0)
	sp.EndAt(2 * time.Millisecond)
	tr.Bytes = 1 << 20
	tr.Finish(3 * time.Millisecond)
	ring.Add(tr)

	code, body, hdr := get(t, srv.URL+"/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var traces []*telemetry.Trace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("traces did not decode: %v\n%s", err, body)
	}
	if len(traces) != 1 || traces[0].Model != "bert" || traces[0].Iteration != 3 {
		t.Fatalf("traces = %+v", traces)
	}
	if len(traces[0].Root.Children) != 1 || traces[0].Root.Children[0].Name != "pull" {
		t.Fatalf("span tree lost in JSON: %+v", traces[0].Root)
	}
}

func TestTracesEndpointEmptyIsArray(t *testing.T) {
	srv, _, _ := newAdminServer(t)
	_, body, _ := get(t, srv.URL+"/debug/traces")
	if strings.TrimSpace(body) != "[]" {
		t.Fatalf("empty traces body = %q, want []", body)
	}
}

func TestHealthz(t *testing.T) {
	srv, _, _ := newAdminServer(t)
	code, body, _ := get(t, srv.URL+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz = %d %q", code, body)
	}
}

func TestEventsEndpointJSON(t *testing.T) {
	reg := telemetry.NewRegistry()
	ring := telemetry.NewTraceRing(8)
	events := telemetry.NewEventRing(8)
	wd := telemetry.NewWatchdog(10*time.Millisecond, events)
	ring.OnComplete(wd.Observe)
	srv := httptest.NewServer(telemetry.AdminHandler(reg, ring, events, wd))
	t.Cleanup(srv.Close)

	events.Emit(telemetry.Event{Kind: telemetry.EvSchedAdmit, Model: "m", Time: time.Millisecond})
	tr := telemetry.NewTrace("checkpoint", "m", 1, 0)
	tr.Finish(time.Second) // over budget: captured by the watchdog
	ring.Add(tr)

	code, body, hdr := get(t, srv.URL+"/debug/events")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("code=%d content-type=%q", code, hdr.Get("Content-Type"))
	}
	var doc struct {
		Budget   string            `json:"watchdog_budget"`
		Events   []telemetry.Event `json:"events"`
		Slow     []json.RawMessage `json:"slow_transfers"`
		Emitted  uint64            `json:"events_total"`
		Retained int               `json:"events_retained"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("events doc does not parse: %v\n%s", err, body)
	}
	if doc.Budget != "10ms" {
		t.Fatalf("budget = %q, want 10ms", doc.Budget)
	}
	if len(doc.Slow) != 1 {
		t.Fatalf("slow incidents = %d, want 1", len(doc.Slow))
	}
	// Admit event + the watchdog marker, newest first.
	if len(doc.Events) != 2 || doc.Events[0].Kind != telemetry.EvWatchdogSlow {
		t.Fatalf("events = %+v", doc.Events)
	}
	if doc.Emitted != 2 || doc.Retained != 2 {
		t.Fatalf("emitted/retained = %d/%d, want 2/2", doc.Emitted, doc.Retained)
	}
}

func TestEventsEndpointNilSafe(t *testing.T) {
	srv, _, _ := newAdminServer(t) // no events ring, no watchdog
	code, body, _ := get(t, srv.URL+"/debug/events")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if !strings.Contains(body, `"events": []`) || !strings.Contains(body, `"slow_transfers": []`) {
		t.Fatalf("nil rings must serve empty arrays, got:\n%s", body)
	}
}

func TestTracesEndpointFiltersByID(t *testing.T) {
	srv, _, ring := newAdminServer(t)
	a := telemetry.NewTrace("checkpoint", "m", 1, 0)
	a.ID = telemetry.NewTraceID()
	a.Finish(time.Millisecond)
	b := telemetry.NewTrace("checkpoint", "m", 2, 0)
	b.ID = telemetry.NewTraceID()
	b.Finish(time.Millisecond)
	ring.Add(a)
	ring.Add(b)

	code, body, _ := get(t, srv.URL+"/debug/traces?id="+a.ID.String())
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	var traces []*telemetry.Trace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].Iteration != 1 {
		t.Fatalf("id filter returned %+v", traces)
	}
	if code, _, _ := get(t, srv.URL+"/debug/traces?id=zzz"); code != http.StatusBadRequest {
		t.Fatalf("malformed id: code = %d, want 400", code)
	}
}

func TestPprofEndpointServes(t *testing.T) {
	srv, _, _ := newAdminServer(t)
	code, body, _ := get(t, srv.URL+"/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof goroutine: code=%d body=%.80q", code, body)
	}
}

func TestRuntimeMetricsRegistered(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"portus_go_goroutines",
		"portus_go_heap_alloc_bytes",
		"portus_go_gc_cycles_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime metrics missing %q", want)
		}
	}
}
