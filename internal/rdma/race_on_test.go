//go:build race

package rdma

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so a pooled buffer is not steady state and the
// allocation bounds do not apply.
const raceEnabled = true
