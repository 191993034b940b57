package datapath

import (
	"fmt"
	"strconv"
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
	// Lanes holds the one queue pair every verb is issued on; New
	// refuses more than one. Defaults to a single lane.
	Lanes []*rdma.QP
	// IssueCost is the per-verb posting + completion-polling cost,
	// charged on the virtual clock only.
	IssueCost time.Duration
	// Flush persists [off, off+n) of the PMem data zone (pull direction
	// only). A non-nil error marks the range unpersisted; the engine
	// retries under RetryPolicy and never reports success with an
	// unflushed chunk.
	Flush func(off, n int64) error
	// FlushCost models the CLWB+fence cost of flushing n bytes, charged
	// on the virtual clock only: once per pulled batch, once per
	// copy-forward span, and once more per re-flush.
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
// occupancy, so the Figure 13 breakdown stays additive.
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
	cfg  Config
	lane string // the queue pair's ID, as chunk spans carry it
}

// New creates an engine, applying Config defaults. It panics on more
// than one lane.
func New(cfg Config) *Engine {
	if cfg.Strategy == nil {
		cfg.Strategy = OneSided{}
	}
	if len(cfg.Lanes) > 1 {
		panic(fmt.Sprintf("datapath: %d lanes; an engine issues every verb on one queue pair", len(cfg.Lanes)))
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
	return &Engine{cfg: cfg, lane: strconv.Itoa(cfg.Lanes[0].ID)}
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

// run is one operation's state and the counters that land in Result.
// A run executes on its caller's process only: a posted list reports
// its completions on the caller too.
type run struct {
	e  *Engine
	cx *Context
	// verb names the stage span and prefixes its chunk spans: "pull",
	// "push" or "copy-forward".
	verb  string
	root  *telemetry.Span
	stage *telemetry.Span

	err     error // first fatal error; stops the run
	moved   int64
	retries int
}

// newRun opens the stage span under root.
func (e *Engine) newRun(env sim.Env, cx *Context, root *telemetry.Span, verb string) *run {
	if root == nil {
		root = &telemetry.Span{}
	}
	return &run{e: e, cx: cx, verb: verb, root: root, stage: root.Child(verb, env.Now())}
}

// noteRetry counts a re-attempt and records it in the flight recorder
// (nil-safe), linked to the request's trace.
func (r *run) noteRetry(env sim.Env, what string) {
	r.retries++
	r.e.cfg.Events.Emit(telemetry.Event{
		Time:   env.Now(),
		Kind:   telemetry.EvDatapathRetry,
		Trace:  r.cx.Trace,
		Detail: what,
	})
}

// result stamps the run's retry count into res.
func (r *run) result(res Result) Result {
	res.Retries = r.retries
	return res
}

// transfer moves every chunk in plan order and returns once each has
// landed or the run has failed (r.err): as posted lists when the fabric
// takes them (see post), otherwise one verb at a time, trying each
// chunk until it lands or its attempt budget is spent, backing off
// before each retry.
func (r *run) transfer(env sim.Env, chunks []Chunk) {
	if p := r.poster(); p != nil {
		r.post(env, p, chunks)
		return
	}
	for _, c := range chunks {
		for n := 1; ; n++ {
			landed, alive := r.attempt(env, c, n)
			if !alive {
				return
			}
			if landed {
				break
			}
			env.Sleep(r.e.backoff(n))
		}
	}
}

// poster returns the fabric's list-posting capability when this run can
// use it: the one-sided strategy, whose chunk is exactly one verb.
// Otherwise chunks are issued one at a time.
func (r *run) poster() rdma.Poster {
	if _, ok := r.e.cfg.Strategy.(OneSided); !ok {
		return nil
	}
	return rdma.PosterOf(r.cx.Fabric)
}

// post moves chunks as posted lists: every chunk is posted as one list,
// and the chunks that failed are re-posted as the next list after the
// capped backoff, each still on its own attempt budget. Each chunk's
// span runs from the previous completion (or the post) to its own, so
// the spans tile the stage. A list charges the issue cost of each of
// its verbs.
func (r *run) post(env sim.Env, p rdma.Poster, chunks []Chunk) {
	ops := make([]rdma.Op, 0, len(chunks))
	for n := 1; len(chunks) > 0; n++ {
		ops = ops[:0]
		for _, c := range chunks {
			ops = append(ops, rdma.Op{L: r.cx.local(c), R: r.cx.remote(c)})
		}
		sim.Charge(env, time.Duration(len(ops))*r.e.cfg.IssueCost)
		var failed []Chunk
		alive := true
		start := env.Now()
		p.PostList(env, r.cx.Local, r.verb == "push", ops, func(i int, err error) {
			c := chunks[i]
			sp := r.stage.Child(c.spanName(r.verb), start)
			landed, ok := r.complete(env, c, n, sp, err)
			start = sp.End
			if ok && !landed {
				failed = append(failed, c)
			}
			alive = alive && ok
		})
		if !alive {
			return
		}
		if chunks = failed; len(chunks) > 0 {
			env.Sleep(r.e.backoff(n))
		}
	}
}

// attempt is try n at c, issued alone, in either direction: it charges
// the verb's issue cost, moves the chunk, and settles the try (see
// complete).
func (r *run) attempt(env sim.Env, c Chunk, n int) (landed, alive bool) {
	e := r.e
	sp := r.stage.Child(c.spanName(r.verb), env.Now())
	sim.Charge(env, e.cfg.IssueCost)
	var err error
	if r.verb == "push" {
		err = e.cfg.Strategy.Push(env, r.cx, c)
	} else {
		err = e.cfg.Strategy.Pull(env, r.cx, c)
	}
	return r.complete(env, c, n, sp, err)
}

// complete is the one place a chunk's try is settled, whether it was
// issued alone or posted in a list: it closes the chunk's span sp at
// the try's completion (now), and reports whether the chunk landed and
// whether the run should carry on. A landed chunk counts its bytes. A
// failed try is healed here and nowhere else: it spends one of
// MaxAttempts — exhausting them fails the run — and is counted as a
// retry; the caller backs off before the next.
func (r *run) complete(env sim.Env, c Chunk, n int, sp *telemetry.Span, err error) (landed, alive bool) {
	e := r.e
	sp.EndAt(env.Now())

	if err == nil {
		sp.SetAttr("bytes", strconv.FormatInt(c.Len, 10))
		sp.SetAttr("lane", e.lane)
		if n > 1 {
			sp.SetAttr("attempt", strconv.Itoa(n))
		}
		r.moved += c.Len
		return true, true
	}

	sp.SetAttr("error", err.Error())
	if n >= e.maxAttempts() {
		gerund := "pulling"
		if r.verb == "push" {
			gerund = "restoring"
		}
		if r.err == nil {
			r.err = fmt.Errorf("%s %s: %w", gerund, c.Name, err)
		}
		return false, false
	}
	r.noteRetry(env, r.verb+" "+c.Name)
	return false, true
}

// flush persists [off, off+n) under the retry policy and returns the
// last error once the budget is spent. It is the only caller of
// cfg.Flush, so pulled chunks and copy-forward spans heal alike and no
// path can report success with an unflushed range. Every attempt pays
// the CLWB cost — except a batched flush, whose caller charges one
// whole-batch cost afterwards: there only a re-flush pays, on top,
// before the backoff wait.
func (r *run) flush(env sim.Env, name string, off, n int64, batched bool) error {
	e := r.e
	for attempts := 1; ; attempts++ {
		err := e.cfg.Flush(off, n)
		if !batched {
			sim.Charge(env, e.cfg.FlushCost(n))
		}
		if err == nil || attempts >= e.maxAttempts() {
			return err
		}
		r.noteRetry(env, "flush "+name)
		if batched {
			sim.Charge(env, e.cfg.FlushCost(n))
		}
		env.Sleep(e.backoff(attempts))
	}
}

// Pull runs the checkpoint direction, the paper's datapath: every chunk
// is transferred into PMem in plan order — as one posted list when the
// fabric takes lists — then the whole batch is flushed, with one
// whole-batch flush cost. Pull returns only once all chunks are
// persisted, so the caller may commit the version's done flag. That
// invariant survives healing: a retried chunk still flushes before Pull
// returns, and a flush that keeps failing past the retry budget fails
// the whole run. Under root it builds a "pull" span (one child span per
// chunk attempt, with bytes and lane attributes) and a "flush" span
// covering the flush tail; the spans are contiguous, so they sum with
// the caller's other stages to the end-to-end latency.
//
// Per-verb issue and flush costs are charged on the virtual clock only:
// on a real environment the socket round trip and the flush are the
// cost, and a sleep per chunk would pay a timer wake-up far above the
// few µs modeled.
func (e *Engine) Pull(env sim.Env, cx *Context, p Plan, root *telemetry.Span) (Result, error) {
	r := e.newRun(env, cx, root, "pull")
	r.transfer(env, p.Chunks)
	pulled := env.Now()
	// Close the stage span even on failure: an unclosed span (End == 0)
	// renders with a negative duration in dumps.
	r.stage.EndAt(pulled)
	if r.err != nil {
		return r.result(Result{}), r.err
	}
	flush := r.root.Child("flush", pulled)
	for _, c := range p.Chunks {
		if err := r.flush(env, c.Name, c.PMemOff, c.Len, true); err != nil {
			flush.EndAt(env.Now())
			return r.result(Result{}), fmt.Errorf("flushing %s: %w", c.Name, err)
		}
	}
	sim.Charge(env, e.cfg.FlushCost(r.moved))
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
	r := e.newRun(env, cx, root, "copy-forward")
	var copied int64
	for _, s := range spans {
		sp := r.stage.Child("copy:"+s.Name, env.Now())
		what := "copy-forward"
		err := cp(s.DstOff, s.SrcOff, s.Size)
		if err == nil {
			sim.Charge(env, perfmodel.PMemCopyTime(s.Size))
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
// client's memory the same way as Pull's — in plan order, one posted
// list when the fabric takes lists, bounded per-chunk retry with capped
// backoff either way — with no flush stage. Under root it builds a
// "push" span with one child per chunk attempt.
func (e *Engine) Push(env sim.Env, cx *Context, p Plan, root *telemetry.Span) (Result, error) {
	r := e.newRun(env, cx, root, "push")
	r.transfer(env, p.Chunks)
	r.stage.EndAt(env.Now())
	if r.err != nil {
		return r.result(Result{}), r.err
	}
	return r.result(Result{Bytes: r.moved, Transfer: r.stage.Dur(), Chunks: len(p.Chunks)}), nil
}
