package telemetry

import (
	"sync"
	"time"
)

// EventKind classifies flight-recorder events. Kinds are dotted
// subsystem.verb strings so /debug/events output can be filtered with a
// plain substring match.
type EventKind string

// Flight-recorder event kinds emitted across the daemon.
const (
	EvSchedAdmit    EventKind = "sched.admit"
	EvSchedCoalesce EventKind = "sched.coalesce"
	EvSchedDedup    EventKind = "sched.dedup"
	EvSchedBusy     EventKind = "sched.busy"
	EvDatapathRetry EventKind = "datapath.retry"
	EvWatchdogSlow  EventKind = "watchdog.slow"
	// Admin operations: operator-triggered list/archive/delete requests,
	// recorded so portusctl events shows who touched the stored models.
	EvAdminList   EventKind = "admin.list"
	EvAdminDump   EventKind = "admin.dump"
	EvAdminDelete EventKind = "admin.delete"
	// EvAdminReplicate records a REPLICATE received: anti-entropy
	// rebuilding a replica from a peer's PMem, committed as a checkpoint.
	EvAdminReplicate EventKind = "admin.replicate"
	// EvStoreReclaim records a reclaim verdict on the admission path: a
	// registration hit a space error and the engine either freed enough
	// to retry or stayed exhausted (Detail says which).
	EvStoreReclaim EventKind = "store.reclaim"
	// EvStoreRepack records a completed online repack pass with its
	// report summary in Detail.
	EvStoreRepack EventKind = "store.repack"
	// EvDeltaPlan records an accepted incremental-checkpoint plan:
	// Detail carries the pull/copy-forward/skip byte split.
	EvDeltaPlan EventKind = "delta.plan"
	// EvDeltaFallback records a checkpoint that requested delta but ran
	// full, with the reason in Detail (no table, layout mismatch,
	// untrusted table, or a plan that would move more than a full pass).
	EvDeltaFallback EventKind = "delta.fallback"
	// EvDeltaTableLost records a committed checkpoint whose block-digest
	// table failed to persist: the version is intact, but the next
	// checkpoint of the model cannot delta against it and runs full.
	EvDeltaTableLost EventKind = "delta.table-lost"
)

// EventKinds lists every declared kind, in declaration order: the label
// values portus_events_total exports from startup, each at 0 until its
// first event.
var EventKinds = []EventKind{
	EvSchedAdmit, EvSchedCoalesce, EvSchedDedup, EvSchedBusy,
	EvDatapathRetry, EvWatchdogSlow,
	EvAdminList, EvAdminDump, EvAdminDelete, EvAdminReplicate,
	EvStoreReclaim, EvStoreRepack,
	EvDeltaPlan, EvDeltaFallback, EvDeltaTableLost,
}

// Event is one flight-recorder entry: a typed, timestamped record of a
// scheduling or datapath decision, linked to its trace when the request
// carried one. Times are env.Now() values, comparable with span times.
type Event struct {
	Seq       uint64        `json:"seq"`
	Time      time.Duration `json:"time"`
	Kind      EventKind     `json:"kind"`
	Model     string        `json:"model,omitempty"`
	Iteration uint64        `json:"iteration,omitempty"`
	Trace     TraceID       `json:"trace_id,omitempty"`
	Detail    string        `json:"detail,omitempty"`
}

// EventRing is a bounded, concurrency-safe flight recorder. Writers pay
// one short mutex hold per event; the ring overwrites oldest-first.
// Beside the ring it keeps an exact count per kind, which overwriting
// never touches: that count is the one accumulator for every decision
// the daemon records (portus_events_total{kind}). All methods are
// nil-safe so instrumented code needs no enablement checks.
type EventRing struct {
	mu     sync.Mutex
	buf    []Event
	next   int
	full   bool
	seq    uint64
	counts map[EventKind]uint64
}

// DefEventDepth is the default flight-recorder capacity.
const DefEventDepth = 1024

// NewEventRing creates a ring holding up to capacity events (minimum 1;
// capacity <= 0 selects DefEventDepth).
func NewEventRing(capacity int) *EventRing {
	if capacity <= 0 {
		capacity = DefEventDepth
	}
	return &EventRing{buf: make([]Event, capacity), counts: make(map[EventKind]uint64)}
}

// Export registers portus_events_total{kind} in reg: one series per
// declared kind, sampled from the ring's per-kind counts.
func (r *EventRing) Export(reg *Registry) {
	for _, k := range EventKinds {
		reg.CounterFunc("portus_events_total", "flight-recorder events emitted, by kind",
			func() float64 { return float64(r.Count(k)) }, L("kind", string(k)))
	}
}

// Emit records e, stamping its sequence number.
func (r *EventRing) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
	r.counts[e.Kind]++
	r.mu.Unlock()
}

// Snapshot returns retained events, newest first.
func (r *EventRing) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		idx := (r.next - 1 - i + len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}

// Window returns retained events with Time >= since, oldest first —
// the "surrounding event window" a slow-transfer incident captures.
func (r *EventRing) Window(since time.Duration) []Event {
	snap := r.Snapshot()
	// snap is newest-first; collect matches then reverse.
	var out []Event
	for _, e := range snap {
		if e.Time >= since {
			out = append(out, e)
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Total reports how many events have ever been emitted.
func (r *EventRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Count reports how many events of kind have ever been emitted,
// including those the ring has since overwritten.
func (r *EventRing) Count(kind EventKind) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[kind]
}

// SlowIncident is a watchdog snapshot: the trace that blew the latency
// budget plus the flight-recorder window covering its lifetime.
type SlowIncident struct {
	Budget time.Duration `json:"budget"`
	Trace  *Trace        `json:"trace"`
	Events []Event       `json:"events,omitempty"`
}

// Watchdog watches completed traces and snapshots any transfer whose
// end-to-end duration exceeds the configured budget. Register Observe
// with TraceRing.OnComplete. A zero budget disables the watchdog.
type Watchdog struct {
	budget time.Duration
	events *EventRing

	mu        sync.Mutex
	incidents []SlowIncident
	max       int
}

// NewWatchdog builds a watchdog with the given latency budget and
// flight recorder (may be nil), which counts the slow transfers as
// watchdog.slow events.
func NewWatchdog(budget time.Duration, events *EventRing) *Watchdog {
	return &Watchdog{budget: budget, events: events, max: 8}
}

// Budget reports the configured latency budget.
func (w *Watchdog) Budget() time.Duration {
	if w == nil {
		return 0
	}
	return w.budget
}

// Observe inspects one completed trace; call it from
// TraceRing.OnComplete. Transfers within budget are free (one compare).
func (w *Watchdog) Observe(t *Trace) {
	if w == nil || w.budget <= 0 || t == nil || t.Duration <= w.budget {
		return
	}
	// Capture the window before emitting the slow event so the incident
	// holds only events that preceded (or overlapped) the transfer.
	win := w.events.Window(t.Root.Start)
	w.events.Emit(Event{
		Time:      t.Root.End,
		Kind:      EvWatchdogSlow,
		Model:     t.Model,
		Iteration: t.Iteration,
		Trace:     t.ID,
		Detail:    "duration " + t.Duration.String() + " > budget " + w.budget.String(),
	})
	w.mu.Lock()
	w.incidents = append(w.incidents, SlowIncident{Budget: w.budget, Trace: t, Events: win})
	if len(w.incidents) > w.max {
		w.incidents = w.incidents[len(w.incidents)-w.max:]
	}
	w.mu.Unlock()
}

// Incidents returns retained slow-transfer snapshots, newest first.
func (w *Watchdog) Incidents() []SlowIncident {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]SlowIncident, len(w.incidents))
	for i := range w.incidents {
		out[i] = w.incidents[len(w.incidents)-1-i]
	}
	return out
}
