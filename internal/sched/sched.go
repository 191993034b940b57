// Package sched is the daemon's multi-tenant scheduling core: it owns
// admission, deduplication, coalescing, ordering, and backpressure for
// every checkpoint and restore request the daemon serves.
//
// The paper's evaluation (§V-E) runs many training jobs against one
// PMem node; funneling them through a global FIFO lets one noisy tenant
// starve the rest, and the old per-session busy flag hard-rejected any
// request that arrived while another was in flight. The scheduler
// replaces both:
//
//   - Per-model FIFO lanes. Each model's requests execute one at a
//     time, in order (the version slots are not safe under concurrent
//     writers), but different models proceed independently.
//   - A round-robin picker interleaves lanes. Restores form a strict
//     priority class above checkpoints — they sit on the recovery
//     critical path, and a recovering job should not queue behind other
//     tenants' checkpoint traffic.
//   - Coalescing (the Checkmate freshness rule): only the newest
//     checkpoint of a model matters, so a queued checkpoint request
//     superseded by a newer iteration is folded into it instead of
//     executed. Superseded waiters are acknowledged when the newer
//     version commits.
//   - Dedup: re-submitting an identical in-flight request (the client's
//     retry path after a reconnect) attaches the new connection as a
//     duplicate waiter instead of double-executing or bouncing. Because
//     admission runs under one lock, the old CAS-vs-park race window is
//     structurally unreachable.
//   - Bounded queues: per-model and global caps turn overload into an
//     explicit BUSY reply with a retry-after hint instead of an
//     unbounded queue or a hard error.
//
// All state transitions happen under one mutex, so the scheduler is
// safe under the real runtime (ordinary goroutines, -race) and fully
// deterministic under the discrete-event engine.
package sched

import (
	"fmt"
	"sync"
	"time"

	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

// Class is a request's priority class.
type Class int

// Classes in ascending priority: the picker serves the highest class
// with runnable work first. Maintenance (the storage engine's online
// repack pass) sits below everything — compaction only runs against a
// model whose lane has no live traffic ready, which is exactly the
// per-model quiesce lease the engine needs: while a maintenance task
// occupies the lane's running slot, no checkpoint or restore for that
// model can dispatch.
const (
	ClassMaintenance Class = iota
	ClassCheckpoint
	ClassRestore
	numClasses
)

// String names the class (used as the telemetry label).
func (c Class) String() string {
	switch c {
	case ClassMaintenance:
		return "maintenance"
	case ClassCheckpoint:
		return "checkpoint"
	case ClassRestore:
		return "restore"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Verdict is the outcome of a Submit.
type Verdict int

const (
	// Admitted: the task was queued and will be dispatched.
	Admitted Verdict = iota
	// CoalescedVerdict: the task was folded into (or absorbed) a queued
	// checkpoint for the same model under the freshness rule; its
	// waiters are acknowledged when the surviving task commits.
	CoalescedVerdict
	// Deduped: an identical task is already queued or running; the
	// submission was attached as a duplicate waiter.
	Deduped
	// Rejected: the per-model or global queue bound was hit; the caller
	// should reply BUSY with Result.RetryAfter.
	Rejected
)

// Result reports a Submit outcome.
type Result struct {
	Verdict Verdict
	// RetryAfter estimates when queue space will free up (set on
	// Rejected): the smoothed per-task service time scaled by the
	// backlog per worker.
	RetryAfter time.Duration
}

// Stale is one coalesced-away request: an older checkpoint submission
// superseded by the task that now carries it. The executor must
// acknowledge its waiter with Iteration (its own requested iteration)
// once the surviving task commits.
type Stale struct {
	Iteration uint64
	Payload   any
}

// Task is one admitted request — the unit the scheduler queues,
// coalesces, and hands to workers. The caller fills the identity
// fields and Payload; the scheduler fills Dups and Coalesced as
// duplicates and superseded requests attach. After the scheduler
// removes the task from the running set (Done), Dups and Coalesced are
// stable and the executor fans its replies out to them.
type Task struct {
	Model     string
	Class     Class
	Iteration uint64
	// Exact marks a task that answers for its own iteration only (the
	// daemon re-replicating a peer's version): it dedups onto an Exact
	// task of the same iteration and nothing else, and is never
	// coalesced, neither superseding nor superseded.
	Exact bool
	// TraceID/ParentSpan carry the client's trace context through the
	// queue so the executor's trace adopts the client-minted identity.
	// Zero means untraced.
	TraceID    telemetry.TraceID
	ParentSpan uint64
	// EnqueuedAt is the submitter's clock at submission (for wait
	// accounting and traces).
	EnqueuedAt time.Duration
	// Payload is the caller's request context (opaque to the scheduler).
	Payload any
	// Dups are payloads of duplicate submissions of this same task.
	Dups []any
	// Coalesced are older same-model checkpoint requests this task
	// superseded.
	Coalesced []Stale

	startedAt time.Duration
}

// Config parameterizes a Scheduler.
type Config struct {
	// ModelQueueCap bounds the requests queued (not running) per model;
	// 0 defaults to 8, negative means unbounded.
	ModelQueueCap int
	// GlobalCap bounds the requests queued across all models; 0
	// defaults to 64, negative means unbounded.
	GlobalCap int
	// Workers hints how many tasks drain concurrently (sizes the
	// retry-after estimate); 0 defaults to 8.
	Workers int
	// Telemetry receives the scheduler's queue-depth gauges and
	// per-class wait histograms; nil creates a private registry.
	Telemetry *telemetry.Registry
	// Events receives a flight-recorder entry per admission decision
	// (admit/coalesce/dedup/busy), and its per-kind counts are the
	// decision counters; nil creates a private ring.
	Events *telemetry.EventRing
}

// lane is one model's FIFO queue pair plus its in-flight slot.
type lane struct {
	name    string
	q       [numClasses][]*Task
	running *Task
}

func (l *lane) queued() int {
	n := 0
	for _, q := range l.q {
		n += len(q)
	}
	return n
}

// Scheduler is the multi-tenant request scheduler. All methods are safe
// for concurrent use.
type Scheduler struct {
	cfg Config

	mu     sync.Mutex
	lanes  map[string]*lane
	order  []string // lane ring, registration order
	cursor int
	queued int
	closed bool
	// svcNanos is the EWMA of per-task service time, feeding the
	// retry-after hint.
	svcNanos int64

	// tokens counts lanes that are idle and non-empty: one token per
	// dispatchable lane head. Next blocks on it.
	tokens *sim.Mailbox[struct{}]

	wait [numClasses]*telemetry.Histogram
}

// New creates a scheduler, applying Config defaults.
func New(env sim.Env, cfg Config) *Scheduler {
	switch {
	case cfg.ModelQueueCap == 0:
		cfg.ModelQueueCap = 8
	case cfg.ModelQueueCap < 0:
		cfg.ModelQueueCap = int(^uint(0) >> 1)
	}
	switch {
	case cfg.GlobalCap == 0:
		cfg.GlobalCap = 64
	case cfg.GlobalCap < 0:
		cfg.GlobalCap = int(^uint(0) >> 1)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
		cfg.Telemetry = reg
	}
	if cfg.Events == nil {
		cfg.Events = telemetry.NewEventRing(0)
	}
	s := &Scheduler{
		cfg:    cfg,
		lanes:  make(map[string]*lane),
		tokens: sim.NewMailbox[struct{}](env),
	}
	reg.GaugeFunc("portus_sched_queue_depth_global", "requests queued across all models, not yet dispatched",
		func() float64 { return float64(s.QueueDepth()) })
	for c := Class(0); c < numClasses; c++ {
		s.wait[c] = reg.Histogram("portus_sched_wait_seconds",
			"time a request waits in the scheduler before a worker picks it up", nil,
			telemetry.L("class", c.String()))
	}
	return s
}

// Telemetry exposes the registry the scheduler's metrics live in.
func (s *Scheduler) Telemetry() *telemetry.Registry { return s.cfg.Telemetry }

// laneFor returns model's lane, creating it (and registering its
// queue-depth gauge) on first use. Called with mu held: the gauge is
// sampled at scrape time through ModelDepth, which takes mu, so the
// registry must never sample it under a lock registration holds.
func (s *Scheduler) laneFor(model string) *lane {
	l, ok := s.lanes[model]
	if !ok {
		l = &lane{name: model}
		s.cfg.Telemetry.GaugeFunc("portus_sched_queue_depth",
			"requests queued for one model, not yet dispatched",
			func() float64 { return float64(s.ModelDepth(model)) },
			telemetry.L("model", model))
		s.lanes[model] = l
		s.order = append(s.order, model)
	}
	return l
}

// retryAfter estimates how long a bounced caller should wait: the
// smoothed service time scaled by the backlog each worker already owes.
func (s *Scheduler) retryAfter() time.Duration {
	svc := time.Duration(s.svcNanos)
	if svc <= 0 {
		svc = 500 * time.Microsecond
	}
	d := svc * time.Duration(1+s.queued/s.cfg.Workers)
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// event records a flight-recorder entry for an admission decision,
// which also counts it.
func (s *Scheduler) event(env sim.Env, kind telemetry.EventKind, t *Task, detail string) {
	s.cfg.Events.Emit(telemetry.Event{
		Time:      env.Now(),
		Kind:      kind,
		Model:     t.Model,
		Iteration: t.Iteration,
		Trace:     t.TraceID,
		Detail:    detail,
	})
}

// Submit admits, coalesces, dedups, or rejects a task. It never
// blocks. The task must not be reused after submission unless the
// verdict is Rejected.
func (s *Scheduler) Submit(env sim.Env, t *Task) Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Result{Verdict: Rejected, RetryAfter: time.Second}
	}
	l := s.laneFor(t.Model)

	// Dedup against the running task: the client's retry of an
	// in-flight request (its original DONE was lost with a dropped
	// connection) parks as a duplicate waiter.
	if r := l.running; r != nil && r.Class == t.Class && r.Exact == t.Exact &&
		(t.Class == ClassRestore || r.Iteration == t.Iteration) {
		r.Dups = append(r.Dups, t.Payload)
		s.event(env, telemetry.EvSchedDedup, t, "attached to running task")
		return Result{Verdict: Deduped}
	}
	// Dedup / coalesce against the queued tasks of the same class.
	for _, q := range l.q[t.Class] {
		if q.Exact != t.Exact || (t.Exact && q.Iteration != t.Iteration) {
			continue
		}
		if t.Class == ClassRestore || q.Iteration == t.Iteration {
			q.Dups = append(q.Dups, t.Payload)
			s.event(env, telemetry.EvSchedDedup, t, "attached to queued task")
			return Result{Verdict: Deduped}
		}
		if q.Iteration < t.Iteration {
			// Freshness rule: the queued request is stale; the newer
			// iteration takes its place in the queue and carries its
			// waiters.
			t.Coalesced = append(t.Coalesced, Stale{Iteration: q.Iteration, Payload: q.Payload})
			for _, dp := range q.Dups {
				t.Coalesced = append(t.Coalesced, Stale{Iteration: q.Iteration, Payload: dp})
			}
			t.Coalesced = append(t.Coalesced, q.Coalesced...)
			*q = *t
			s.event(env, telemetry.EvSchedCoalesce, t, fmt.Sprintf("superseded queued iter %d", t.Coalesced[0].Iteration))
			return Result{Verdict: CoalescedVerdict}
		}
		// The incoming request is the stale one (a late retry racing a
		// newer submission): absorb it into the newer task.
		q.Coalesced = append(q.Coalesced, Stale{Iteration: t.Iteration, Payload: t.Payload})
		s.event(env, telemetry.EvSchedCoalesce, t, fmt.Sprintf("absorbed by queued iter %d", q.Iteration))
		return Result{Verdict: CoalescedVerdict}
	}

	// Bounds apply only to fresh admissions — retries and stale
	// requests merged above never bounce. Maintenance tasks are exempt:
	// they originate inside the daemon (one per model per pass, already
	// deduped above) and bouncing them under load would starve exactly
	// the reclamation that relieves the load.
	if t.Class != ClassMaintenance &&
		(s.queued >= s.cfg.GlobalCap || l.queued() >= s.cfg.ModelQueueCap) {
		ra := s.retryAfter()
		s.event(env, telemetry.EvSchedBusy, t, "retry after "+ra.String())
		return Result{Verdict: Rejected, RetryAfter: ra}
	}

	wasEmpty := l.queued() == 0
	l.q[t.Class] = append(l.q[t.Class], t)
	s.queued++
	s.event(env, telemetry.EvSchedAdmit, t, "")
	if wasEmpty && l.running == nil {
		// The lane just became dispatchable: hand a worker a token.
		s.tokens.Send(env, struct{}{})
	}
	return Result{Verdict: Admitted}
}

// Next blocks until a task is dispatchable, picks one under the
// configured policy, marks its lane running, and returns it. It
// returns false after Close.
func (s *Scheduler) Next(env sim.Env) (*Task, bool) {
	for {
		if _, ok := s.tokens.Recv(env); !ok {
			return nil, false
		}
		s.mu.Lock()
		t := s.pick()
		if t == nil {
			// Should be unreachable (one token per dispatchable lane),
			// but never let an accounting slip wedge a worker.
			s.mu.Unlock()
			continue
		}
		l := s.lanes[t.Model]
		l.q[t.Class] = l.q[t.Class][1:]
		l.running = t
		s.queued--
		t.startedAt = env.Now()
		s.wait[t.Class].ObserveDurationTraced(t.startedAt-t.EnqueuedAt, t.TraceID)
		s.mu.Unlock()
		return t, true
	}
}

// pick chooses the next lane head: round-robin across models
// with strict class priority (restores first). Called with mu held.
func (s *Scheduler) pick() *Task {
	for c := numClasses - 1; c >= 0; c-- {
		if t := s.pickClass(c); t != nil {
			return t
		}
	}
	return nil
}

// pickClass walks the model ring from the cursor and takes the first
// dispatchable lane head; the cursor moves past it, so every lane gets
// one dispatch per turn of the ring.
func (s *Scheduler) pickClass(c Class) *Task {
	n := len(s.order)
	for i := 0; i < n; i++ {
		idx := (s.cursor + i) % n
		l := s.lanes[s.order[idx]]
		if l.running != nil || len(l.q[c]) == 0 {
			continue
		}
		s.cursor = (idx + 1) % n
		return l.q[c][0]
	}
	return nil
}

// Done marks a dispatched task complete, freeing its lane for the next
// request. After Done returns, the task's Dups and Coalesced lists are
// stable: late duplicates of a finished task are admitted as fresh
// submissions instead (the daemon's committed-iteration check answers
// them from the index).
func (s *Scheduler) Done(env sim.Env, t *Task) {
	s.mu.Lock()
	l := s.lanes[t.Model]
	if l == nil || l.running != t {
		s.mu.Unlock()
		return
	}
	l.running = nil
	d := int64(env.Now() - t.startedAt)
	if d > 0 {
		if s.svcNanos == 0 {
			s.svcNanos = d
		} else {
			s.svcNanos += (d - s.svcNanos) / 8
		}
	}
	dispatchable := l.queued() > 0 && !s.closed
	s.mu.Unlock()
	if dispatchable {
		s.tokens.Send(env, struct{}{})
	}
}

// Idle reports whether model has no queued and no running task.
func (s *Scheduler) Idle(model string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.lanes[model]
	return !ok || (l.running == nil && l.queued() == 0)
}

// IdleTenant reports whether model has no tenant-originated work — no
// queued or running checkpoint/restore. Maintenance tasks don't count:
// a DELETE arriving while the engine compacts the model is safe (both
// serialize on the engine mutex, and the compactor re-checks liveness),
// so a pending repack must not make the tenant's delete bounce.
func (s *Scheduler) IdleTenant(model string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.lanes[model]
	if !ok {
		return true
	}
	if l.running != nil && l.running.Class != ClassMaintenance {
		return false
	}
	for c := ClassCheckpoint; c < numClasses; c++ {
		if len(l.q[c]) > 0 {
			return false
		}
	}
	return true
}

// Forget drops an idle model's lane (after a DELETE). It is a no-op if
// the lane still has work.
func (s *Scheduler) Forget(model string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.lanes[model]
	if !ok || l.running != nil || l.queued() > 0 {
		return
	}
	delete(s.lanes, model)
	for i, name := range s.order {
		if name == model {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if len(s.order) == 0 {
		s.cursor = 0
	} else {
		s.cursor %= len(s.order)
	}
}

// QueueDepth reports the requests queued across all models, not yet
// picked up by a worker — the single source of truth behind
// daemon.Stats.QueueDepth and the portus_sched_queue_depth_global gauge.
func (s *Scheduler) QueueDepth() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.queued)
}

// ModelDepth reports the queued requests for one model (the
// portus_sched_queue_depth gauge).
func (s *Scheduler) ModelDepth(model string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.lanes[model]; ok {
		return l.queued()
	}
	return 0
}

// Close wakes every worker blocked in Next with (nil, false). Queued
// tasks are dropped.
func (s *Scheduler) Close(env sim.Env) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.tokens.Close(env)
}
