package telemetry_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/telemetry"
)

func TestEventRingSeqAndNewestFirst(t *testing.T) {
	ring := telemetry.NewEventRing(4)
	for i := 0; i < 3; i++ {
		ring.Emit(telemetry.Event{Kind: telemetry.EvSchedAdmit, Iteration: uint64(i)})
	}
	snap := ring.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	for i, wantIter := range []uint64{2, 1, 0} {
		if snap[i].Iteration != wantIter {
			t.Fatalf("snapshot[%d].Iteration = %d, want %d", i, snap[i].Iteration, wantIter)
		}
	}
	// Seq is assigned by the ring, monotonically from 1.
	if snap[2].Seq != 1 || snap[0].Seq != 3 {
		t.Fatalf("seqs = [%d %d %d], want [3 2 1]", snap[0].Seq, snap[1].Seq, snap[2].Seq)
	}
}

func TestEventRingWraparound(t *testing.T) {
	ring := telemetry.NewEventRing(3)
	for i := 0; i < 7; i++ {
		ring.Emit(telemetry.Event{Kind: telemetry.EvDatapathRetry, Iteration: uint64(i)})
	}
	snap := ring.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	// Newest-first across the ring seam.
	for i, wantIter := range []uint64{6, 5, 4} {
		if snap[i].Iteration != wantIter {
			t.Fatalf("snapshot[%d].Iteration = %d, want %d", i, snap[i].Iteration, wantIter)
		}
	}
	if ring.Total() != 7 {
		t.Fatalf("Total = %d, want 7", ring.Total())
	}
}

// TestEventRingCountsStayExactPastWraparound: the per-kind counts are
// the accumulators behind portus_events_total, so overwriting old
// events must not lose any of them, and every declared kind is
// exported from the start, at 0 until its first event.
func TestEventRingCountsStayExactPastWraparound(t *testing.T) {
	ring := telemetry.NewEventRing(4)
	reg := telemetry.NewRegistry()
	ring.Export(reg)
	want := map[telemetry.EventKind]uint64{}
	kinds := []telemetry.EventKind{telemetry.EvSchedAdmit, telemetry.EvSchedAdmit, telemetry.EvDatapathRetry, telemetry.EvSchedBusy}
	for i := 0; i < 25; i++ {
		k := kinds[i%len(kinds)]
		ring.Emit(telemetry.Event{Kind: k})
		want[k]++
	}
	if len(ring.Snapshot()) != 4 || ring.Total() != 25 {
		t.Fatalf("retained %d of %d events, want 4 of 25", len(ring.Snapshot()), ring.Total())
	}
	var buf strings.Builder
	reg.WritePrometheus(&buf)
	samples, err := telemetry.ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	exported := map[telemetry.EventKind]float64{}
	for _, s := range samples {
		if s.Name == "portus_events_total" {
			exported[telemetry.EventKind(s.Labels["kind"])] = s.Value
		}
	}
	if len(exported) != len(telemetry.EventKinds) {
		t.Fatalf("portus_events_total has %d series, want one per declared kind (%d)", len(exported), len(telemetry.EventKinds))
	}
	for _, k := range telemetry.EventKinds {
		if got := ring.Count(k); got != want[k] {
			t.Errorf("Count(%s) = %d, want %d", k, got, want[k])
		}
		if got := exported[k]; got != float64(want[k]) {
			t.Errorf(`portus_events_total{kind=%q} = %v, want %d`, k, got, want[k])
		}
	}
}

func TestEventRingWindowOldestFirst(t *testing.T) {
	ring := telemetry.NewEventRing(8)
	for i := 0; i < 5; i++ {
		ring.Emit(telemetry.Event{
			Kind: telemetry.EvSchedBusy,
			Time: time.Duration(i) * time.Millisecond, Iteration: uint64(i),
		})
	}
	win := ring.Window(2 * time.Millisecond)
	if len(win) != 3 {
		t.Fatalf("window len = %d, want 3", len(win))
	}
	// Oldest-first within the window, so it reads as a timeline.
	for i, wantIter := range []uint64{2, 3, 4} {
		if win[i].Iteration != wantIter {
			t.Fatalf("window[%d].Iteration = %d, want %d", i, win[i].Iteration, wantIter)
		}
	}
}

func TestNilEventRingIsNoOp(t *testing.T) {
	var ring *telemetry.EventRing
	ring.Emit(telemetry.Event{Kind: telemetry.EvDatapathRetry})
	if ring.Snapshot() != nil || ring.Window(0) != nil || ring.Total() != 0 || ring.Count(telemetry.EvDatapathRetry) != 0 {
		t.Fatal("nil ring must read as empty")
	}
}

func TestEventRingConcurrentEmitSnapshot(t *testing.T) {
	ring := telemetry.NewEventRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ring.Emit(telemetry.Event{Kind: telemetry.EvSchedAdmit, Iteration: uint64(g)})
				if i%10 == 0 {
					_ = ring.Snapshot()
					_ = ring.Window(0)
				}
			}
		}(g)
	}
	wg.Wait()
	if ring.Total() != 8*200 {
		t.Fatalf("Total = %d, want %d", ring.Total(), 8*200)
	}
	snap := ring.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq >= snap[i-1].Seq {
			t.Fatalf("snapshot not strictly newest-first at %d: %d then %d", i, snap[i-1].Seq, snap[i].Seq)
		}
	}
}

func TestWatchdogWithinBudgetIsFree(t *testing.T) {
	events := telemetry.NewEventRing(8)
	wd := telemetry.NewWatchdog(100*time.Millisecond, events)
	tr := telemetry.NewTrace("checkpoint", "m", 1, 0)
	tr.Finish(50 * time.Millisecond)
	wd.Observe(tr)
	if events.Count(telemetry.EvWatchdogSlow) != 0 || len(wd.Incidents()) != 0 || events.Total() != 0 {
		t.Fatal("within-budget transfer must not trip the watchdog")
	}
}

func TestWatchdogCapturesSlowTransfer(t *testing.T) {
	events := telemetry.NewEventRing(8)
	wd := telemetry.NewWatchdog(10*time.Millisecond, events)

	// Context the transfer ran in: events inside its lifetime land in the
	// captured window, older ones don't.
	events.Emit(telemetry.Event{Kind: telemetry.EvSchedAdmit, Time: 1 * time.Millisecond})
	events.Emit(telemetry.Event{Kind: telemetry.EvDatapathRetry, Time: 25 * time.Millisecond})

	tr := telemetry.NewTrace("checkpoint", "m", 7, 20*time.Millisecond)
	tr.Finish(50 * time.Millisecond)
	wd.Observe(tr)

	if got := events.Count(telemetry.EvWatchdogSlow); got != 1 {
		t.Fatalf("watchdog.slow count = %v, want 1", got)
	}
	incidents := wd.Incidents()
	if len(incidents) != 1 {
		t.Fatalf("incidents = %d, want 1", len(incidents))
	}
	inc := incidents[0]
	if inc.Trace != tr {
		t.Fatal("incident must capture the offending trace")
	}
	// The window covers the transfer's lifetime but excludes the
	// admit event from before it started — and excludes the
	// watchdog's own marker, which is emitted after capture.
	if len(inc.Events) != 1 || inc.Events[0].Kind != telemetry.EvDatapathRetry {
		t.Fatalf("incident window = %+v, want just the in-flight retry", inc.Events)
	}
	snap := events.Snapshot()
	if snap[0].Kind != telemetry.EvWatchdogSlow {
		t.Fatalf("newest event = %s, want %s", snap[0].Kind, telemetry.EvWatchdogSlow)
	}
}

func TestWatchdogDisabledAndNilSafe(t *testing.T) {
	wd := telemetry.NewWatchdog(0, nil)
	tr := telemetry.NewTrace("checkpoint", "m", 1, 0)
	tr.Finish(time.Hour)
	wd.Observe(tr) // budget 0: disabled, must not panic on a nil ring
	if len(wd.Incidents()) != 0 {
		t.Fatal("disabled watchdog must not record incidents")
	}
	if wd.Budget() != 0 {
		t.Fatalf("Budget = %v, want 0", wd.Budget())
	}
}
