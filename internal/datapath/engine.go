package datapath

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

// RetryPolicy tunes the engine's self-healing behavior: a failed chunk
// transfer or flush is retried after a capped exponential backoff, and
// one that outlasts the budget fails the run loudly. The zero value
// disables it: the first error fails the run, matching the pre-retry
// datapath.
type RetryPolicy struct {
	// MaxAttempts bounds the tries per chunk — transfer attempts and
	// flush attempts are budgeted independently. Values below 2 mean a
	// single attempt (no retry).
	MaxAttempts int
	// Backoff is the delay before the second attempt, doubling on each
	// further attempt up to backoffMax.
	Backoff time.Duration
}

// Config parameterizes an Engine.
type Config struct {
	// Strategy moves individual chunks; defaults to OneSided.
	Strategy Strategy
	// Depth and Lanes together select Pull's flush schedule; chunks move
	// through the same attempt loop under both.
	//
	// Depth 1 on a single lane (the default, and the paper's datapath)
	// is the batch schedule: every chunk is pulled in plan order, then
	// all of them are flushed, with one whole-batch flush cost.
	//
	// Any other setting — Depth >= 2, or more than one lane at any
	// depth — is the flush-behind schedule: a flusher persists each
	// chunk as it lands while later chunks are still being pulled, and
	// Depth bounds the chunks pulled but not yet flushed. At depth 1
	// with several lanes that means one chunk past the transfer stage
	// at a time.
	//
	// Push has no flush stage and ignores Depth.
	Depth int
	// Lanes are the queue pairs chunks stripe across, one sim process
	// per lane; a single lane runs inline on the caller. Defaults to a
	// single lane.
	Lanes []*rdma.QP
	// IssueCost is the per-verb posting + completion-polling cost.
	IssueCost time.Duration
	// Flush persists [off, off+n) of the PMem data zone (pull direction
	// only). A non-nil error marks the range unpersisted; the engine
	// retries under RetryPolicy and never reports success with an
	// unflushed chunk.
	Flush func(off, n int64) error
	// FlushCost models the CLWB+fence cost of flushing n bytes. It must
	// be linear in n so per-chunk and whole-batch flushing charge the
	// same total.
	FlushCost func(n int64) time.Duration
	// Retry is the self-healing policy for transient verb and flush
	// errors.
	Retry RetryPolicy
	// Events receives a flight-recorder entry per retry (which also
	// counts it); nil disables emission.
	Events *telemetry.EventRing
}

// Result reports what an engine run moved and the wall-clock (or
// virtual) stage breakdown. Transfer covers engine start to the last
// chunk's transfer completion; Flush is the remaining tail until every
// chunk is persisted. The two always sum to the engine's total
// occupancy, so the Figure 13 breakdown stays additive even when the
// stages overlap internally.
type Result struct {
	Bytes    int64
	Transfer time.Duration
	Flush    time.Duration
	Chunks   int
	// Retries counts chunk transfers and flushes that were re-attempted
	// after a transient error.
	Retries int
}

// Engine executes Plans. It is stateless across runs and safe for
// concurrent use by multiple daemon workers.
type Engine struct {
	cfg Config
}

// New creates an engine, applying Config defaults.
func New(cfg Config) *Engine {
	if cfg.Strategy == nil {
		cfg.Strategy = OneSided{}
	}
	if cfg.Depth < 1 {
		cfg.Depth = 1
	}
	if len(cfg.Lanes) == 0 {
		cfg.Lanes = []*rdma.QP{{ID: 0}}
	}
	if cfg.Flush == nil {
		cfg.Flush = func(int64, int64) error { return nil }
	}
	if cfg.FlushCost == nil {
		cfg.FlushCost = func(int64) time.Duration { return 0 }
	}
	return &Engine{cfg: cfg}
}

func (e *Engine) maxAttempts() int {
	if e.cfg.Retry.MaxAttempts < 1 {
		return 1
	}
	return e.cfg.Retry.MaxAttempts
}

// backoffMax caps the doubled retry backoff.
const backoffMax = 10 * time.Millisecond

// backoff returns the pre-retry delay after `attempt` failed attempts.
func (e *Engine) backoff(attempt int) time.Duration {
	return sim.Backoff(e.cfg.Retry.Backoff, attempt, backoffMax)
}

// run is one operation's state: the schedule its lanes and flusher
// coordinate through and the counters that land in Result. Everything
// below mu is shared between the lane and flusher processes of a
// striped or flush-behind run; a single-lane run takes the same locks
// uncontended.
type run struct {
	e  *Engine
	cx *Context
	// verb names the stage span and prefixes its chunk spans: "pull",
	// "push" or "copy-forward".
	verb  string
	root  *telemetry.Span
	stage *telemetry.Span
	// charge spends a modeled cost (per-verb issue, flush): env.Sleep,
	// or sim.Charge where the wall clock already pays for the work.
	charge func(sim.Env, time.Duration)

	// tokens bound the chunks pulled but not yet flushed, and flushQ
	// hands pulled chunks to the flusher; nil unless flushing behind.
	tokens *sim.Mailbox[struct{}]
	flushQ *sim.Mailbox[Chunk]

	mu      sync.Mutex
	err     error // first fatal error; stops every lane
	moved   int64
	lastEnd time.Duration // completion time of the latest transfer
	retries int
}

// newRun opens the stage span under root.
func (e *Engine) newRun(env sim.Env, cx *Context, root *telemetry.Span, verb string, charge func(sim.Env, time.Duration)) *run {
	if root == nil {
		root = &telemetry.Span{}
	}
	now := env.Now()
	return &run{
		e: e, cx: cx, verb: verb,
		root: root, stage: root.Child(verb, now), charge: charge,
		lastEnd: now,
	}
}

// noteRetry counts a re-attempt and records it in the flight recorder
// (nil-safe), linked to the request's trace.
func (r *run) noteRetry(env sim.Env, what string) {
	r.mu.Lock()
	r.retries++
	r.mu.Unlock()
	r.e.cfg.Events.Emit(telemetry.Event{
		Time:   env.Now(),
		Kind:   telemetry.EvDatapathRetry,
		Trace:  r.cx.Trace,
		Detail: what,
	})
}

// fail records the run's first fatal error; every lane stops at its
// next attempt.
func (r *run) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// result stamps the run's retry count into res.
func (r *run) result(res Result) Result {
	res.Retries = r.retries
	return res
}

// transfer moves every chunk and returns once each has landed or the
// run has failed (r.err). A single lane runs inline on the caller,
// taking chunks in plan order; several lanes run as one sim process
// each, striping chunks from a shared work queue that is filled and
// closed before any lane starts.
func (r *run) transfer(env sim.Env, chunks []Chunk) {
	lanes := r.e.cfg.Lanes
	if len(lanes) == 1 {
		i := 0
		r.lane(env, lanes[0], func(sim.Env) (Chunk, bool) {
			if i == len(chunks) {
				return Chunk{}, false
			}
			i++
			return chunks[i-1], true
		})
		return
	}
	work := sim.NewMailbox[Chunk](env)
	for _, c := range chunks {
		work.Send(env, c)
	}
	work.Close(env)
	g := sim.NewGroup(env)
	g.Add(env, len(lanes))
	for _, qp := range lanes {
		qp := qp
		env.Go(fmt.Sprintf("datapath-lane-%d", qp.ID), func(env sim.Env) {
			defer g.Done(env)
			r.lane(env, qp, work.Recv)
		})
	}
	g.Wait(env)
}

// lane works through chunks on one queue pair until next runs dry or
// the run fails, trying each chunk until it lands or its attempt budget
// is spent.
func (r *run) lane(env sim.Env, qp *rdma.QP, next func(sim.Env) (Chunk, bool)) {
	for {
		c, ok := next(env)
		if !ok {
			return
		}
		for n := 1; ; n++ {
			landed, alive := r.attempt(env, qp, c, n)
			if !alive {
				return
			}
			if landed {
				break
			}
		}
	}
}

// attempt is the one place a chunk moves: try n at c on lane qp, in
// either direction. It reports whether the chunk landed and whether the
// lane should carry on. A failed try is healed here and nowhere else:
// it spends one of MaxAttempts (exhausting them fails the run) and
// backs off before the next.
func (r *run) attempt(env sim.Env, qp *rdma.QP, c Chunk, n int) (landed, alive bool) {
	e := r.e
	if r.tokens != nil {
		// Bound chunks in flight past the transfer stage. Tokens are
		// conserved: the flusher (or a failing attempt) always returns
		// them, so blocked lanes cannot starve.
		r.tokens.Recv(env)
	}
	r.mu.Lock()
	if r.err != nil {
		r.mu.Unlock()
		r.returnToken(env)
		return false, false
	}
	sp := r.stage.Child(c.spanName(r.verb), env.Now())
	r.mu.Unlock()

	r.charge(env, e.cfg.IssueCost)
	var err error
	if r.verb == "push" {
		err = e.cfg.Strategy.Push(env, r.cx, c)
	} else {
		err = e.cfg.Strategy.Pull(env, r.cx, c)
	}
	now := env.Now()
	sp.EndAt(now)

	if err == nil {
		sp.SetAttr("bytes", strconv.FormatInt(c.Len, 10))
		sp.SetAttr("lane", strconv.Itoa(qp.ID))
		if n > 1 {
			sp.SetAttr("attempt", strconv.Itoa(n))
		}
		r.mu.Lock()
		r.moved += c.Len
		if now > r.lastEnd {
			r.lastEnd = now
		}
		r.mu.Unlock()
		if r.flushQ != nil {
			r.flushQ.Send(env, c) // the chunk carries its token to the flusher
		}
		return true, true
	}

	r.returnToken(env)
	sp.SetAttr("error", err.Error())
	if n >= e.maxAttempts() {
		gerund := "pulling"
		if r.verb == "push" {
			gerund = "restoring"
		}
		r.fail(fmt.Errorf("%s %s: %w", gerund, c.Name, err))
		return false, false
	}
	r.noteRetry(env, r.verb+" "+c.Name)
	env.Sleep(e.backoff(n))
	return false, true
}

func (r *run) returnToken(env sim.Env) {
	if r.tokens != nil {
		r.tokens.Send(env, struct{}{})
	}
}

// flush persists [off, off+n) under the retry policy and returns the
// last error once the budget is spent. It is the only caller of
// cfg.Flush, so pulled chunks and copy-forward spans heal alike and no
// path can report success with an unflushed range. Every attempt pays
// the CLWB cost — except a batched flush, whose caller charges one
// whole-batch cost afterwards: there only a re-flush pays, on top.
func (r *run) flush(env sim.Env, name string, off, n int64, batched bool) error {
	e := r.e
	for attempts := 1; ; attempts++ {
		err := e.cfg.Flush(off, n)
		if !batched {
			r.charge(env, e.cfg.FlushCost(n))
		}
		if err == nil || attempts >= e.maxAttempts() {
			return err
		}
		r.noteRetry(env, "flush "+name)
		pause := e.backoff(attempts)
		if batched {
			pause += e.cfg.FlushCost(n)
		}
		env.Sleep(pause)
	}
}

// flushBehind starts the flush-behind schedule: Depth tokens bound the
// chunks pulled but not yet flushed, and a flusher process persists
// each chunk as it lands and returns its token, so a chunk's flush runs
// while later chunks are still in flight. The returned signal fires
// when the flusher has drained everything ahead of the Len < 0
// sentinel.
func (r *run) flushBehind(env sim.Env) *sim.Signal {
	r.tokens = sim.NewMailbox[struct{}](env)
	for i := 0; i < r.e.cfg.Depth; i++ {
		r.tokens.Send(env, struct{}{})
	}
	r.flushQ = sim.NewMailbox[Chunk](env)
	drained := sim.NewSignal(env)
	env.Go("datapath-flusher", func(env sim.Env) {
		for {
			c, ok := r.flushQ.Recv(env)
			if !ok || c.Len < 0 {
				drained.Fire(env)
				return
			}
			if err := r.flush(env, c.Name, c.PMemOff, c.Len, false); err != nil {
				r.fail(fmt.Errorf("flushing %s: %w", c.Name, err))
			}
			r.tokens.Send(env, struct{}{})
		}
	})
	return drained
}

// Pull runs the checkpoint direction: every chunk is transferred into
// PMem and flushed; Pull returns only once all chunks are persisted,
// so the caller may commit the version's done flag. That invariant
// survives healing: a retried chunk still flushes before
// Pull returns, and a flush that keeps failing past the retry budget
// fails the whole run. Under root it builds a "pull" span (one child
// span per chunk attempt, with bytes and lane attributes) and a "flush"
// span covering the flush tail; the spans are contiguous, so they sum
// with the caller's other stages to the end-to-end latency.
//
// The chunks always move through the same attempt loop; only the flush
// schedule differs. At depth 1 on one lane every chunk is transferred,
// then the whole batch is flushed — the paper's datapath, with the
// pre-engine timing and span structure. Otherwise chunks flush behind
// the transfers (see flushBehind).
//
// A delta plan (NewDeltaPlan) charges its per-verb issue and flush
// costs on the virtual clock only, like CopyForward: its many small
// chunks would otherwise each pay a timer wake-up on a real environment,
// far above the few µs modeled, and the pull's wall time would follow
// host load instead of the bytes moved.
func (e *Engine) Pull(env sim.Env, cx *Context, p Plan, root *telemetry.Span) (Result, error) {
	charge := sim.Env.Sleep
	if p.delta {
		charge = sim.Charge
	}
	r := e.newRun(env, cx, root, "pull", charge)
	behind := e.cfg.Depth > 1 || len(e.cfg.Lanes) > 1
	if behind {
		drained := r.flushBehind(env)
		r.transfer(env, p.Chunks)
		r.flushQ.Send(env, Chunk{Len: -1})
		drained.Wait(env)
	} else {
		r.transfer(env, p.Chunks)
	}
	if r.err != nil {
		// Close the stage span even on failure: an unclosed span (End ==
		// 0) renders with a negative duration in dumps.
		r.stage.EndAt(env.Now())
		return r.result(Result{}), r.err
	}
	pulled := r.lastEnd
	r.stage.EndAt(pulled)
	flush := r.root.Child("flush", pulled)
	if !behind {
		for _, c := range p.Chunks {
			if err := r.flush(env, c.Name, c.PMemOff, c.Len, true); err != nil {
				flush.EndAt(env.Now())
				return r.result(Result{}), fmt.Errorf("flushing %s: %w", c.Name, err)
			}
		}
		r.charge(env, e.cfg.FlushCost(r.moved))
	}
	end := env.Now()
	flush.EndAt(end)
	return r.result(Result{Bytes: r.moved, Transfer: pulled - r.stage.Start, Flush: end - pulled, Chunks: len(p.Chunks)}), nil
}

// CopySpan is one clean range an incremental checkpoint carries forward
// inside PMem: SrcOff (the active slot's copy) to DstOff (the slot
// being written), never crossing the fabric.
type CopySpan struct {
	Name   string
	DstOff int64 // absolute offset within the PMem data zone
	SrcOff int64
	Size   int64
}

// CopyFn performs one local PMem-to-PMem copy of n bytes. The daemon
// supplies it (the engine has no device handle); it must leave the
// destination range unflushed — the engine charges and drives the flush
// itself so the flush-before-DONE discipline stays in one place.
type CopyFn func(dstOff, srcOff, n int64) error

// CopyForward executes the local half of an incremental checkpoint:
// every span is copied active→target inside PMem and flushed before
// CopyForward returns, so the caller can commit the target slot's done
// flag exactly as after a full Pull. A torn flush heals under the retry
// policy like a pulled chunk's; one that outlasts the budget fails the
// run. Time is charged per span from the modeled PMem read + write
// bandwidth plus the standard flush cost, on the virtual clock only: on
// a real environment the memmove and the flush are the cost. Under root
// it builds a "copy-forward" span with one child per span.
func (e *Engine) CopyForward(env sim.Env, cx *Context, spans []CopySpan, cp CopyFn, root *telemetry.Span) (Result, error) {
	r := e.newRun(env, cx, root, "copy-forward", sim.Charge)
	var copied int64
	for _, s := range spans {
		sp := r.stage.Child("copy:"+s.Name, env.Now())
		what := "copy-forward"
		err := cp(s.DstOff, s.SrcOff, s.Size)
		if err == nil {
			r.charge(env, perfmodel.PMemCopyTime(s.Size))
			what, err = "copy-forward flush", r.flush(env, s.Name, s.DstOff, s.Size, false)
		}
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.EndAt(env.Now())
			r.stage.EndAt(env.Now())
			return r.result(Result{Bytes: copied}), fmt.Errorf("%s %s: %w", what, s.Name, err)
		}
		copied += s.Size
		sp.SetAttr("bytes", strconv.FormatInt(s.Size, 10))
		sp.EndAt(env.Now())
	}
	end := env.Now()
	r.stage.EndAt(end)
	return r.result(Result{Bytes: copied, Transfer: end - r.stage.Start, Chunks: len(spans)}), nil
}

// Push runs the restore direction: chunks move from PMem back into the
// client's memory through the same attempt loop as Pull — bounded
// per-chunk retry with capped backoff — with no flush stage. Under root
// it builds a "push" span with one child per chunk attempt.
func (e *Engine) Push(env sim.Env, cx *Context, p Plan, root *telemetry.Span) (Result, error) {
	r := e.newRun(env, cx, root, "push", sim.Env.Sleep)
	r.transfer(env, p.Chunks)
	r.stage.EndAt(env.Now())
	if r.err != nil {
		return r.result(Result{}), r.err
	}
	return r.result(Result{Bytes: r.moved, Transfer: r.stage.Dur(), Chunks: len(p.Chunks)}), nil
}
