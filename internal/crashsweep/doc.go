// Package crashsweep is the crash-consistency test of the whole storage
// path, and holds nothing but tests: one driver, one invariant check,
// one table of scenarios (sweep_test.go, rows_test.go).
//
// Durable state changes only at pmem.Device's three persist calls
// (FlushData, FlushMeta, Persist8), so a power failure can only ever
// fall between two of them. The driver runs a scenario once to count
// its N persists, then N+1 more times with the device going dark after
// k = 0…N of them (pmem.Device.FailAfter), cuts the power (Crash),
// reopens the namespace under a fresh daemon and checks the invariants
// of DESIGN.md §6 — the same check for every scenario and every k.
// Nothing under test cooperates: there is no abort path and no hook
// outside internal/pmem.
//
// Every boundary is a subtest, so a failure is named
// TestSweep/<scenario>/k=<n> and replays alone:
//
//	go test ./internal/crashsweep -run 'TestSweep/lifecycle/k=17$'
//
// Tier-1 sweeps a three-tensor model; `make crash` passes -full for the
// 28-tensor one.
package crashsweep
