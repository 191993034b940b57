package experiments

import "testing"

// TestMultitenantFairnessBound pins the headline acceptance criterion:
// 8 identical concurrent tenants finish with a max/min mean-stall ratio
// of at most 2.0, and no tenant loses a committed checkpoint (mtFairness
// panics on a lost commit).
func TestMultitenantFairnessBound(t *testing.T) {
	r := mtFairness(8, 6)
	if r.fairness > 2.0 {
		t.Fatalf("fairness ratio %.2f at 8 tenants, want <= 2.0", r.fairness)
	}
	if r.throughput <= 0 {
		t.Fatalf("aggregate throughput %.2f, want > 0", r.throughput)
	}
}

// TestMultitenantPressureObservable drives the scheduler past its
// bounds and requires both overload mechanisms to fire and be visible
// in telemetry, with every bounced request healed.
func TestMultitenantPressureObservable(t *testing.T) {
	coalesced, busy, retries, committed := mtPressure()
	if coalesced < 1 {
		t.Errorf("sched.coalesce events = %d, want >= 1", coalesced)
	}
	if busy < 1 {
		t.Errorf("sched.busy events = %d, want >= 1", busy)
	}
	if retries < 1 {
		t.Errorf("client busy retries = %d, want >= 1", retries)
	}
	want := map[string]uint64{
		"tenant00": 8, "tenant01": 3, "tenant02": 3, "tenant03": 3,
	}
	for name, iter := range want {
		if committed[name] != iter {
			t.Errorf("%s committed frontier = %d, want %d", name, committed[name], iter)
		}
	}
}

// TestMultitenantFairnessScalesDown sanity-checks the sweep's lower
// points quickly: a single tenant is trivially fair and two tenants
// stay within the bound.
func TestMultitenantFairnessScalesDown(t *testing.T) {
	if r := mtFairness(1, 3); r.fairness != 1.0 {
		t.Fatalf("single-tenant fairness = %.2f, want exactly 1.0", r.fairness)
	}
	if r := mtFairness(2, 3); r.fairness > 2.0 {
		t.Fatalf("two-tenant fairness = %.2f, want <= 2.0", r.fairness)
	}
}
