package experiments

import (
	"fmt"
	"testing"
)

// checkChaosInvariant is the acceptance bar for the self-healing
// stack: with faults at every layer — verb errors, dropped control
// connections, torn flushes — the run completes with zero lost
// committed checkpoints, commits at least one, restores its newest
// complete version bit-exactly, and shows the healing counters in the
// Prometheus scrape.
func checkChaosInvariant(t *testing.T, seed int64, rate float64) {
	t.Helper()
	o := RunChaos(seed, rate, 25)
	if o.Lost != 0 {
		t.Fatalf("lost %d committed checkpoints: %+v", o.Lost, o)
	}
	if !o.RestoredOK {
		t.Fatalf("newest complete version did not restore bit-exactly: %+v", o)
	}
	if o.Faults == 0 {
		t.Fatal("no faults injected — the harness is not wired into the stack")
	}
	if o.Committed == 0 {
		t.Fatalf("no checkpoints committed under faults: %+v", o)
	}
	if !o.ScrapeOK {
		t.Fatal("fault/retry/reconnect counters missing from the Prometheus scrape")
	}
}

// TestChaosInvariantAtTenPercent holds the invariant for the fixed
// seed at a 10% fault rate.
func TestChaosInvariantAtTenPercent(t *testing.T) {
	checkChaosInvariant(t, ChaosSeed, 0.10)
}

// TestChaosInvariantAcrossSeeds holds it for eight more seeds at 20%,
// so healing is not proven by one lucky schedule.
func TestChaosInvariantAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkChaosInvariant(t, seed, 0.20)
		})
	}
}

// TestChaosIsDeterministic: the same seed and rate replay the exact
// same run — faults, retries, commits, and reconnects all match.
func TestChaosIsDeterministic(t *testing.T) {
	a := RunChaos(ChaosSeed, 0.10, 15)
	b := RunChaos(ChaosSeed, 0.10, 15)
	if a.Faults != b.Faults || a.Retries != b.Retries ||
		a.Committed != b.Committed || a.Reconnects != b.Reconnects ||
		a.FailedLoud != b.FailedLoud || a.RestoredIter != b.RestoredIter {
		t.Fatalf("two runs with the same seed diverged:\n  a = %+v\n  b = %+v", a, b)
	}
}

// TestChaosCleanRunInjectsNothing: rate zero must leave the stack
// untouched — no faults, no retries, no reconnects, full goodput.
func TestChaosCleanRunInjectsNothing(t *testing.T) {
	o := RunChaos(ChaosSeed, 0, 10)
	if o.Faults != 0 || o.Retries != 0 || o.Reconnects != 0 || o.FailedLoud != 0 {
		t.Fatalf("clean run shows healing activity: %+v", o)
	}
	if o.Committed != o.Attempted || !o.RestoredOK {
		t.Fatalf("clean run incomplete: %+v", o)
	}
}
