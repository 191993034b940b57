// Package sim provides a deterministic discrete-event simulation engine
// and a small concurrency abstraction (Env) that lets the same component
// code run either under virtual time (for reproducing the paper's
// experiments deterministically) or under real wall-clock time (for the
// TCP-backed executables and integration tests).
//
// The engine hosts each simulated process as a goroutine, but exactly one
// process executes at any instant: processes hand control back to the
// engine whenever they block (Sleep, mailbox receive, signal wait,
// bandwidth transfer), and the engine advances virtual time to the next
// scheduled event. Scheduling is totally ordered by (time, sequence
// number), so a given program produces the same trace on every run.
package sim

import (
	"container/heap"
	"fmt"
	"runtime"
	"time"
)

// Engine is a discrete-event scheduler. Create one with NewEngine, spawn
// processes with Go, and drive it with Run or RunUntil. Engine methods
// other than process-context operations must be called from the goroutine
// that owns the engine (typically the test or benchmark body).
type Engine struct {
	now    time.Duration
	seq    uint64
	queue  eventHeap
	ctl    chan struct{} // handshake: running proc -> engine
	nprocs int           // live (spawned, not finished) processes
	// procs lists the started, unfinished processes in start order, so
	// Run can reap the ones still parked when the queue drains.
	procs proc

	// trace, when non-nil, receives one entry per dispatched event.
	// Used by determinism tests.
	trace []string
	// tracing enables trace collection.
	tracing bool
}

// NewEngine returns an engine with virtual time at zero.
func NewEngine() *Engine {
	e := &Engine{ctl: make(chan struct{})}
	e.procs.prev, e.procs.next = &e.procs, &e.procs
	return e
}

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// SetTracing enables or disables event tracing (for determinism tests).
func (e *Engine) SetTracing(on bool) { e.tracing = on; e.trace = nil }

// Trace returns the collected event trace.
func (e *Engine) Trace() []string { return e.trace }

// event is a scheduled occurrence: either waking a parked process or
// running a callback in engine context.
type event struct {
	at        time.Duration
	seq       uint64
	p         *proc  // non-nil: wake this process
	fn        func() // non-nil: run inline (must not block)
	cancelled bool
	label     string
	index     int // heap index
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// schedule enqueues an event at absolute virtual time at.
func (e *Engine) schedule(at time.Duration, p *proc, fn func(), label string) *event {
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := &event{at: at, seq: e.seq, p: p, fn: fn, label: label}
	heap.Push(&e.queue, ev)
	return ev
}

// cancel marks a scheduled event as dead; it will be skipped on dispatch.
func (e *Engine) cancel(ev *event) {
	if ev != nil {
		ev.cancelled = true
	}
}

// proc is one simulated process.
type proc struct {
	name    string
	eng     *Engine
	wake    chan struct{}
	startFn func(Env)
	started bool
	dead    bool
	// killed makes the next return from park exit the goroutine instead
	// of resuming the process body (Engine.reap).
	killed bool
	// prev, next link the engine's list of started, unfinished processes.
	prev, next *proc
	// panicked carries a panic value out of the process goroutine so the
	// engine can re-raise it on the driving goroutine.
	panicked any
	hasPanic bool
}

// Go spawns a new process that begins executing at the current virtual
// time (after already-scheduled events at this time). The process body
// receives its own Env and must perform all blocking through it.
func (e *Engine) Go(name string, fn func(Env)) {
	p := &proc{name: name, eng: e, wake: make(chan struct{}), startFn: fn}
	e.nprocs++
	e.schedule(e.now, p, nil, "start:"+name)
}

// Run dispatches events until none remain. It returns the final virtual
// time. Processes still parked on signals or mailboxes when the event
// queue drains are abandoned (the usual DES convention) and reaped: each
// one's goroutine exits, running its deferred calls, so nothing it
// references outlives the run.
func (e *Engine) Run() time.Duration {
	now := e.RunUntil(1<<62 - 1)
	e.reap()
	return now
}

// reap ends every process still parked once nothing can wake it: each is
// woken once with its kill flag set and exits from inside park. A
// deferred call that tries to block exits the same way, and whatever the
// dying processes scheduled is dropped with them.
func (e *Engine) reap() {
	for p := e.procs.next; p != &e.procs; p = e.procs.next {
		p.killed = true
		e.dispatch(p)
	}
	e.queue = nil
}

// RunUntil dispatches events with time ≤ deadline and then stops,
// leaving later events queued. It returns the virtual time after the
// last dispatched event (or the deadline if it stopped early).
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	for e.queue.Len() > 0 {
		ev := e.queue[0]
		if ev.at > deadline {
			e.now = deadline
			return e.now
		}
		heap.Pop(&e.queue)
		if ev.cancelled {
			continue
		}
		e.now = ev.at
		if e.tracing {
			e.trace = append(e.trace, fmt.Sprintf("%d:%s", e.now, ev.label))
		}
		switch {
		case ev.fn != nil:
			ev.fn()
		case ev.p != nil:
			e.dispatch(ev.p)
		}
	}
	return e.now
}

// dispatch transfers control to process p and waits for it to park,
// finish, or panic.
func (e *Engine) dispatch(p *proc) {
	if p.dead {
		return
	}
	if !p.started {
		p.started = true
		p.prev, p.next = e.procs.prev, &e.procs
		p.prev.next, e.procs.prev = p, p
		go func() {
			defer func() {
				if r := recover(); r != nil {
					p.panicked = r
					p.hasPanic = true
				}
				p.dead = true
				p.prev.next, p.next.prev = p.next, p.prev
				p.eng.nprocs--
				e.ctl <- struct{}{}
			}()
			p.startFn(&simEnv{eng: e, p: p})
		}()
	} else {
		p.wake <- struct{}{}
	}
	<-e.ctl
	if p.hasPanic {
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, p.panicked))
	}
}

// park is called from within a process goroutine: it yields control to
// the engine and blocks until the engine wakes this process again — or,
// once the engine is reaping, exits the goroutine.
func (p *proc) park() {
	if !p.killed {
		p.eng.ctl <- struct{}{}
		<-p.wake
	}
	if p.killed {
		runtime.Goexit()
	}
}

// Live reports how many spawned processes have not yet finished.
func (e *Engine) Live() int { return e.nprocs }
