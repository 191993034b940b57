package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// AdminHandler serves the full admin surface:
//
//	/metrics       Prometheus text exposition format (with exemplar comments)
//	/debug/traces  JSON array of recent span trees, newest first
//	               (?model= and ?id= filter; ?id= takes a hex trace id)
//	/debug/events  flight recorder: recent events + slow-transfer incidents
//	/debug/pprof/  Go runtime profiles (heap, goroutine, profile, trace)
//	/healthz       200 "ok"
//
// Any argument may be nil (the corresponding endpoint serves an empty
// document).
func AdminHandler(reg *Registry, traces *TraceRing, events *EventRing, watchdog *Watchdog) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			reg.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := traces.Snapshot()
		model := r.URL.Query().Get("model")
		var id TraceID
		if q := r.URL.Query().Get("id"); q != "" {
			if err := id.UnmarshalText([]byte(q)); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		out := make([]*Trace, 0, len(snap))
		for _, t := range snap {
			if model != "" && t.Model != model {
				continue
			}
			if id != 0 && t.ID != id {
				continue
			}
			out = append(out, t)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		evs := events.Snapshot()
		if evs == nil {
			evs = []Event{}
		}
		incidents := watchdog.Incidents()
		if incidents == nil {
			incidents = []SlowIncident{}
		}
		doc := struct {
			Budget   string         `json:"watchdog_budget,omitempty"`
			Events   []Event        `json:"events"`
			Slow     []SlowIncident `json:"slow_transfers"`
			Emitted  uint64         `json:"events_total"`
			Retained int            `json:"events_retained"`
		}{
			Events:   evs,
			Slow:     incidents,
			Emitted:  events.Total(),
			Retained: len(evs),
		}
		if b := watchdog.Budget(); b > 0 {
			doc.Budget = b.String()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		_, _ = w.Write([]byte("ok\n"))
	})
	return mux
}
