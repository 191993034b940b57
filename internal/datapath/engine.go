package datapath

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

// RetryPolicy tunes the engine's self-healing behavior. The zero value
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
	// LaneFailLimit quarantines a lane after this many consecutive
	// failed attempts, re-striping its remaining chunks over the
	// healthy lanes. 0 disables quarantine; the last healthy lane is
	// never quarantined (it must either succeed or fail the run).
	LaneFailLimit int
}

// Metrics receives the engine's healing counters. All handles are
// optional; nil handles are no-ops.
type Metrics struct {
	// Retries counts re-attempted chunk transfers and flushes.
	Retries *telemetry.Counter
	// Degradations counts strategy-chain fallbacks taken on
	// route-class errors.
	Degradations *telemetry.Counter
	// QuarantinedLanes gauges lanes currently removed from a stripe
	// set; it returns to zero when the run completes.
	QuarantinedLanes *telemetry.Gauge
	// Events receives flight-recorder entries for retries, strategy
	// degradations, and lane quarantines; nil disables emission.
	Events *telemetry.EventRing
}

// Config parameterizes an Engine.
type Config struct {
	// Strategy moves individual chunks; defaults to OneSided.
	Strategy Strategy
	// Fallbacks are tried in order when the active strategy hits a
	// route-class error (the peer's MR agent is unreachable,
	// rdma.ErrNoRoute): typically one-sided → two-sided → host-staged.
	// Degradation is per-run; the next run starts at Strategy again.
	Fallbacks []Strategy
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
	// Metrics receives retry/degradation/quarantine telemetry.
	Metrics Metrics
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
	// Degradations counts strategy-chain fallbacks this run took.
	Degradations int
	// Quarantined counts lanes removed from the stripe set this run.
	Quarantined int
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

// Strategy returns the engine's primary chunk-transfer strategy.
func (e *Engine) Strategy() Strategy { return e.cfg.Strategy }

func (e *Engine) maxAttempts() int {
	if e.cfg.Retry.MaxAttempts < 1 {
		return 1
	}
	return e.cfg.Retry.MaxAttempts
}

// backoffMax caps the doubled retry backoff.
const backoffMax = 10 * time.Millisecond

// backoff returns the pre-retry delay after `attempt` failed attempts:
// Backoff doubled per extra failure, capped at backoffMax.
func (e *Engine) backoff(attempt int) time.Duration {
	d := e.cfg.Retry.Backoff
	if d <= 0 {
		return 0
	}
	for i := 1; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	return min(d, backoffMax)
}

// isRouteErr classifies errors that mean the peer's MR agent is
// unreachable — the trigger for strategy degradation. Addressing errors
// (bad rkey, out of bounds) are not route-class: no fallback strategy
// can fix a wrong address, so they fail fast.
func isRouteErr(err error) bool { return errors.Is(err, rdma.ErrNoRoute) }

// workItem is one chunk's place in a run, carrying its attempt budget
// across lanes when a quarantined lane hands it back.
type workItem struct {
	c        Chunk
	attempts int
}

// run is one operation's state: the healing decisions (degradation
// cursor, the counters that land in Result) and the schedule its lanes
// and flusher coordinate through. Everything below mu is shared between
// the lane and flusher processes of a striped or flush-behind run; a
// single-lane run takes the same locks uncontended.
type run struct {
	e     *Engine
	cx    *Context
	lanes []*rdma.QP
	// verb names the stage span and prefixes its chunk spans: "pull",
	// "push" or "copy-forward".
	verb  string
	root  *telemetry.Span
	stage *telemetry.Span
	// charge spends a modeled cost (per-verb issue, flush): env.Sleep,
	// or sim.Charge where the wall clock already pays for the work.
	charge func(sim.Env, time.Duration)

	// work feeds the lane processes of a striped run and takes back the
	// chunk of a quarantined lane; nil when one lane runs inline. Sends
	// and the close happen under mu (guarded by workClosed) so a
	// quarantined lane can never send on a closed queue.
	work *sim.Mailbox[*workItem]
	// tokens bound the chunks pulled but not yet flushed, and flushQ
	// hands pulled chunks to the flusher; nil unless flushing behind.
	tokens *sim.Mailbox[struct{}]
	flushQ *sim.Mailbox[Chunk]

	mu           sync.Mutex
	cur          int   // position in the degradation chain
	err          error // first fatal error; stops every lane
	workClosed   bool
	moved        int64
	lastEnd      time.Duration // completion time of the latest transfer
	settled      int           // chunks needing nothing more
	total        int
	healthy      int // lanes not quarantined
	retries      int
	degradations int
	quarantined  int
}

// newRun opens the stage span under root and resolves the lane set: the
// context's leased subset when one is set, else the engine's full set.
func (e *Engine) newRun(env sim.Env, cx *Context, root *telemetry.Span, verb string, total int, charge func(sim.Env, time.Duration)) *run {
	if root == nil {
		root = &telemetry.Span{}
	}
	lanes := cx.Lanes
	if len(lanes) == 0 {
		lanes = e.cfg.Lanes
	}
	now := env.Now()
	return &run{
		e: e, cx: cx, lanes: lanes, verb: verb,
		root: root, stage: root.Child(verb, now), charge: charge,
		lastEnd: now, total: total, healthy: len(lanes),
	}
}

// chain indexes the degradation chain: the primary strategy, then the
// fallbacks in order.
func (e *Engine) chain(i int) Strategy {
	if i == 0 {
		return e.cfg.Strategy
	}
	return e.cfg.Fallbacks[i-1]
}

func (r *run) strategy() Strategy {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.e.chain(r.cur)
}

// event records a healing decision in the flight recorder (nil-safe),
// linked to the request's trace.
func (r *run) event(env sim.Env, kind telemetry.EventKind, detail string) {
	r.e.cfg.Metrics.Events.Emit(telemetry.Event{
		Time:   env.Now(),
		Kind:   kind,
		Trace:  r.cx.Trace,
		Detail: detail,
	})
}

// degrade advances to the next fallback strategy for the rest of the
// run; it reports false when the chain is exhausted (the caller must
// spend a retry attempt on the current strategy).
func (r *run) degrade(env sim.Env) bool {
	r.mu.Lock()
	if r.cur >= len(r.e.cfg.Fallbacks) {
		r.mu.Unlock()
		return false
	}
	r.cur++
	r.degradations++
	from, to := r.e.chain(r.cur-1).Name(), r.e.chain(r.cur).Name()
	r.mu.Unlock()
	r.e.cfg.Metrics.Degradations.Inc()
	r.event(env, telemetry.EvStrategyDegrade, from+" -> "+to)
	return true
}

func (r *run) noteRetry(env sim.Env, what string) {
	r.mu.Lock()
	r.retries++
	r.mu.Unlock()
	r.e.cfg.Metrics.Retries.Inc()
	r.event(env, telemetry.EvDatapathRetry, what)
}

// quarantine removes lane qp from the stripe set and hands its chunk
// back so the remaining work re-stripes over the healthy lanes. The
// last healthy lane is never quarantined (it must either succeed or
// fail the run): then it reports false and the lane keeps retrying.
func (r *run) quarantine(env sim.Env, qp *rdma.QP, it *workItem) bool {
	r.mu.Lock()
	if r.healthy <= 1 {
		r.mu.Unlock()
		return false
	}
	r.healthy--
	r.quarantined++
	if !r.workClosed {
		r.work.Send(env, it)
	}
	r.mu.Unlock()
	r.e.cfg.Metrics.QuarantinedLanes.Inc()
	r.event(env, telemetry.EvLaneQuarantine, "lane "+strconv.Itoa(qp.ID))
	return true
}

// closeWork releases lanes idling on the work queue; called with mu
// held. A no-op for an inline run, which has no queue.
func (r *run) closeWork(env sim.Env) {
	if r.work != nil && !r.workClosed {
		r.workClosed = true
		r.work.Close(env)
	}
}

// fail records the run's first fatal error and stops the lanes.
func (r *run) fail(env sim.Env, err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.closeWork(env)
	r.mu.Unlock()
}

// settle counts a chunk that needs nothing more — pushed, or pulled and
// flushed; the last one releases the idle lanes.
func (r *run) settle(env sim.Env) {
	r.mu.Lock()
	r.settled++
	if r.settled == r.total && r.err == nil {
		r.closeWork(env)
	}
	r.mu.Unlock()
}

// result returns quarantined lanes to the gauge (quarantine is scoped
// to one run; the next run stripes over the full lane set again) and
// stamps the healing counters into res.
func (r *run) result(res Result) Result {
	if r.quarantined > 0 {
		r.e.cfg.Metrics.QuarantinedLanes.Add(int64(-r.quarantined))
	}
	res.Retries = r.retries
	res.Degradations = r.degradations
	res.Quarantined = r.quarantined
	return res
}

// laneContext returns cx, or a clone routed through the lane's own
// fabric when one is set (per-lane fault injection, multi-rail NICs).
func laneContext(cx *Context, qp *rdma.QP) *Context {
	if qp.Fabric == nil {
		return cx
	}
	clone := *cx
	clone.Fabric = qp.Fabric
	return &clone
}

// transfer moves every chunk and returns once each has landed or the
// run has failed (r.err). A single lane runs inline on the caller,
// taking chunks in plan order; several lanes run as one sim process
// each, striping chunks from a shared work queue.
func (r *run) transfer(env sim.Env, chunks []Chunk) {
	if len(r.lanes) == 1 {
		var it workItem
		i := 0
		r.lane(env, r.lanes[0], func(sim.Env) (*workItem, bool) {
			if i == len(chunks) {
				return nil, false
			}
			it = workItem{c: chunks[i]}
			i++
			return &it, true
		})
		return
	}
	r.work = sim.NewMailbox[*workItem](env)
	for i := range chunks {
		r.work.Send(env, &workItem{c: chunks[i]})
	}
	if len(chunks) == 0 {
		r.closeWork(env) // no lane is running yet to contend for mu
	}
	lanes := sim.NewGroup(env)
	lanes.Add(env, len(r.lanes))
	for _, qp := range r.lanes {
		qp := qp
		env.Go(fmt.Sprintf("datapath-lane-%d", qp.ID), func(env sim.Env) {
			defer lanes.Done(env)
			r.lane(env, qp, r.work.Recv)
		})
	}
	lanes.Wait(env)
}

// lane works through chunks on one queue pair until next runs dry, the
// run fails, or the lane is quarantined.
func (r *run) lane(env sim.Env, qp *rdma.QP, next func(sim.Env) (*workItem, bool)) {
	lcx := laneContext(r.cx, qp)
	consec := 0 // consecutive failed attempts on this lane
	for {
		it, ok := next(env)
		if !ok {
			return
		}
		for {
			landed, alive := r.attempt(env, lcx, qp, it, &consec)
			if !alive {
				return
			}
			if landed {
				break
			}
		}
	}
}

// attempt is the one place a chunk moves: a single try at it.c on lane
// qp, in either direction. It reports whether the chunk landed and
// whether the lane should carry on. A failed try is healed here and
// nowhere else: a route-class error falls through the strategy chain
// without spending the chunk's budget; any other error spends one of
// MaxAttempts (exhausting them fails the run), backs off, and after
// LaneFailLimit consecutive failures quarantines the lane.
func (r *run) attempt(env sim.Env, lcx *Context, qp *rdma.QP, it *workItem, consec *int) (landed, alive bool) {
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
	sp := r.stage.Child(it.c.spanName(r.verb), env.Now())
	r.mu.Unlock()

	r.charge(env, e.cfg.IssueCost)
	var err error
	if r.verb == "push" {
		err = r.strategy().Push(env, lcx, it.c)
	} else {
		err = r.strategy().Pull(env, lcx, it.c)
	}
	now := env.Now()
	sp.EndAt(now)

	if err == nil {
		*consec = 0
		sp.SetAttr("bytes", strconv.FormatInt(it.c.Len, 10))
		sp.SetAttr("lane", strconv.Itoa(qp.ID))
		if it.attempts > 0 {
			sp.SetAttr("attempt", strconv.Itoa(it.attempts+1))
		}
		r.mu.Lock()
		r.moved += it.c.Len
		if now > r.lastEnd {
			r.lastEnd = now
		}
		r.mu.Unlock()
		if r.flushQ != nil {
			r.flushQ.Send(env, it.c) // the chunk carries its token to the flusher
		} else {
			r.settle(env)
		}
		return true, true
	}

	r.returnToken(env)
	sp.SetAttr("error", err.Error())
	if isRouteErr(err) && r.degrade(env) {
		return false, true // fresh strategy, immediate re-attempt
	}
	it.attempts++
	if it.attempts >= e.maxAttempts() {
		gerund := "pulling"
		if r.verb == "push" {
			gerund = "restoring"
		}
		r.fail(env, fmt.Errorf("%s %s: %w", gerund, it.c.Name, err))
		return false, false
	}
	r.noteRetry(env, r.verb+" "+it.c.Name)
	*consec++
	if lim := e.cfg.Retry.LaneFailLimit; lim > 0 && *consec >= lim && r.quarantine(env, qp, it) {
		return false, false
	}
	env.Sleep(e.backoff(it.attempts))
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
				r.fail(env, fmt.Errorf("flushing %s: %w", c.Name, err))
			}
			r.settle(env)
			r.tokens.Send(env, struct{}{})
		}
	})
	return drained
}

// Pull runs the checkpoint direction: every chunk is transferred into
// PMem and flushed; Pull returns only once all chunks are persisted,
// so the caller may commit the version's done flag. That invariant
// survives healing: a retried or re-striped chunk still flushes before
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
	r := e.newRun(env, cx, root, "pull", len(p.Chunks), charge)
	behind := e.cfg.Depth > 1 || len(r.lanes) > 1
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
	r := e.newRun(env, cx, root, "copy-forward", len(spans), sim.Charge)
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
// per-chunk retry, per-run strategy degradation, lane quarantine when
// striped — with no flush stage. Under root it builds a "push" span
// with one child per chunk attempt.
func (e *Engine) Push(env sim.Env, cx *Context, p Plan, root *telemetry.Span) (Result, error) {
	r := e.newRun(env, cx, root, "push", len(p.Chunks), sim.Env.Sleep)
	r.transfer(env, p.Chunks)
	r.stage.EndAt(env.Now())
	if r.err != nil {
		return r.result(Result{}), r.err
	}
	return r.result(Result{Bytes: r.moved, Transfer: r.stage.Dur(), Chunks: len(p.Chunks)}), nil
}
