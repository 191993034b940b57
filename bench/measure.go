package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/portus-sys/portus"
)

// sample is one timed operation on both clocks: the environment's
// (virtual under the engine) and the host's. On a TCP rig they agree.
type sample struct{ virt, wall float64 }

func virts(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.virt
	}
	return out
}

func walls(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall
	}
	return out
}

// tally is what the clients of one section observed. Clients run
// concurrently, so it locks.
type tally struct {
	mu        sync.Mutex
	ckpt      map[bool][]sample // by unit.delta()
	rest      map[bool][]sample
	ckptBytes int64   // logical bytes of successful checkpoints
	restBytes int64   // logical bytes of successful restores
	harness   float64 // seconds of harness-only work (update, clobber, verify), all clients
	attempted int
	failed    int
}

func newTally() *tally {
	return &tally{ckpt: make(map[bool][]sample), rest: make(map[bool][]sample)}
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.failed++
	first := t.failed == 1
	t.mu.Unlock()
	if first {
		fmt.Fprintf(os.Stderr, "bench: first failure: "+format+"\n", args...)
	}
}

// refuse counts a check that failed before any operation could run.
func (t *tally) refuse(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
	t.fail(format, args...)
}

func (t *tally) addHarness(since time.Time) {
	d := time.Since(since).Seconds()
	t.mu.Lock()
	t.harness += d
	t.mu.Unlock()
}

func (t *tally) ops() int {
	n := 0
	for _, ss := range t.ckpt {
		n += len(ss)
	}
	for _, ss := range t.rest {
		n += len(ss)
	}
	return n
}

// checkpointOp is one closed-loop step: the optimizer rewrites the
// weights (untimed), then the job waits for its checkpoint (timed). A
// verified restore follows on the unit's cadence.
func checkpointOp(env portus.Env, u *unit, t *tally, tr *tracer) {
	u.next++
	it := u.next
	op := tr.begin("checkpoint", u.name, it)
	defer tr.end(op)

	h := time.Now()
	u.update(it)
	t.addHarness(h)
	tr.span(op, "harness.update", h)

	v0, w0 := env.Now(), time.Now()
	err := u.ckpt(env, it)
	s := sample{(env.Now() - v0).Seconds(), time.Since(w0).Seconds()}
	tr.program(tr.span(op, "client.checkpoint", w0), "checkpoint", u.name, it)
	t.mu.Lock()
	t.attempted++
	if err == nil {
		t.ckpt[u.delta()] = append(t.ckpt[u.delta()], s)
		t.ckptBytes += u.bytes
	}
	t.mu.Unlock()
	if err != nil {
		t.fail("checkpoint %s@%d: %v", u.name, it, err)
		return
	}
	u.iter = it
	u.ckpts++
	if u.restoreEvery > 0 && u.ckpts%u.restoreEvery == 0 {
		h = time.Now()
		u.remember()
		t.addHarness(h)
		tr.span(op, "harness.remember", h)
		restoreOp(env, u, u, t, tr, op)
	}
}

// restoreOp loses u's GPU state, restores it (timed) and checks every
// byte against what ref committed (untimed). ref is u itself, or u's
// predecessor from before a crash-restart.
func restoreOp(env portus.Env, u, ref *unit, t *tally, tr *tracer, op *opSpan) {
	h := time.Now()
	u.clobber()
	t.addHarness(h)
	tr.span(op, "harness.clobber", h)

	v0, w0 := env.Now(), time.Now()
	got, err := u.rest(env)
	s := sample{(env.Now() - v0).Seconds(), time.Since(w0).Seconds()}
	tr.program(tr.span(op, "client.restore", w0), "restore", u.name, ref.iter)

	h = time.Now()
	ok := err == nil && got == ref.iter && u.verify(ref)
	t.addHarness(h)
	tr.span(op, "harness.verify", h)

	t.mu.Lock()
	t.attempted++
	if ok {
		t.rest[u.delta()] = append(t.rest[u.delta()], s)
		t.restBytes += u.bytes
	}
	t.mu.Unlock()
	switch {
	case err != nil:
		t.fail("restore %s: %v", u.name, err)
	case got != ref.iter:
		t.fail("restore %s: got iteration %d, committed %d", u.name, got, ref.iter)
	case !ok:
		t.fail("restore %s@%d: content differs from what was checkpointed", u.name, got)
	}
}

// warm takes every unit through both version slots (and, for sparse
// units, through the bootstrap and arming steps of the delta ladder so
// the next checkpoint is a true delta) and one verified restore. It is
// the tail of set-up: first touch of the slots is paid here.
func warm(env portus.Env, r *rig, t *tally) {
	forEachClient(env, len(r.clients), func(env portus.Env, c int) {
		for _, u := range r.clients[c] {
			every := u.restoreEvery
			u.restoreEvery = 0
			n := 2
			if u.delta() {
				n = 3
			}
			for i := 0; i < n; i++ {
				checkpointOp(env, u, t, nil)
			}
			u.restoreEvery = every
			u.remember()
			restoreOp(env, u, u, t, nil, nil)
		}
	})
}

// section is one measured stretch of closed-loop load.
type section struct {
	*tally
	clients       int
	wall, cpu     float64 // seconds
	before, after counters
	mem0, mem1    runtime.MemStats
}

// busy is the wall time the system under test was being waited on:
// the section minus each client's harness-only work.
func (s *section) busy() float64 { return s.wall - s.harness/float64(s.clients) }

// sysCPU is process CPU with the load generator's share taken out. The
// harness work is single-threaded compute, so its wall time stands in
// for its CPU time.
func (s *section) sysCPU() float64 {
	if c := s.cpu - s.harness; c > 0 {
		return c
	}
	return 0
}

// measure drives every client of r in a closed loop until stop says so.
// Each client visits its units in rounds: in registration order, or
// with shuffle in a fresh seeded order every round.
func measure(env portus.Env, r *rig, seed int64, shuffle bool, stop func(clientOps int) bool, tr *tracer) *section {
	s := &section{tally: newTally(), clients: len(r.clients)}
	runtime.GC()
	runtime.ReadMemStats(&s.mem0)
	s.before = r.counters()
	cpu0, w0 := cpuTime(), time.Now()
	forEachClient(env, len(r.clients), func(env portus.Env, c int) {
		units := r.clients[c]
		rng := rand.New(rand.NewSource(seed + int64(c)))
		order := make([]int, len(units))
		for i := range order {
			order[i] = i
		}
		// Stop only between rounds, so every unit has the same share of
		// the ops whatever the time budget cut off.
		for n := 0; n%len(units) != 0 || !stop(n); n++ {
			if shuffle && n%len(units) == 0 {
				order = rng.Perm(len(units))
			}
			checkpointOp(env, units[order[n%len(units)]], s.tally, tr)
		}
	})
	s.wall, s.cpu = time.Since(w0).Seconds(), (cpuTime() - cpu0).Seconds()
	s.after = r.counters()
	runtime.ReadMemStats(&s.mem1)
	return s
}

// durability is the gate that only flushed bytes count: every PMem
// loses what was not flushed, and — where the rig has an image path —
// the namespace image is saved, everything is torn down, and a fresh
// server and fresh clients come up on the image. Every unit must then
// restore its last committed iteration byte for byte. It returns the
// rig to close (the reopened one, if any).
func durability(env portus.Env, r *rig, t *tally) *rig {
	old := r.units()
	for _, u := range old {
		if u.committed != nil && u.committed() != u.iter {
			t.refuse("%s: group committed %d, last checkpoint %d", u.name, u.committed(), u.iter)
		}
	}
	for _, pm := range r.pmems {
		pm.Crash()
	}
	if r.reopen != nil {
		nr, err := r.reopen(env)
		if err != nil {
			t.refuse("restart on the saved image: %v", err)
			return nil
		}
		r = nr
	}
	for i, u := range r.units() {
		restoreOp(env, u, old[i], t, nil, nil)
	}
	return r
}
