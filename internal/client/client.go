// Package client implements the Portus Client library: the
// framework-side extension that registers a training job's GPU-resident
// tensors with the daemon and drives checkpoints and restores over the
// control plane (§III-B, §III-E, §III-F).
//
// Registration collects each tensor's fixed GPU address, registers it as
// an RDMA memory region (the nv_peer_mem step), and ships the metadata
// packet — layer names, dtypes, shapes, remote keys — to the daemon over
// TCP. Checkpoints are then a single "DO_CHECKPOINT" message: the daemon
// pulls the data; the training process never copies, serializes, or
// crosses into the kernel.
//
// Two checkpoint policies mirror Figure 9:
//
//   - Sync waits for CHECKPOINT_DONE before returning (Figure 9(c)).
//   - Async returns immediately after sending the request and only
//     stalls the *update* phase if the pull has not finished by then
//     (Figure 9(d)) — parameters are stable during forward and backward,
//     so the pull hides behind them.
//
// With Options.Dialer set the client self-heals from control-plane
// drops: the receive loop redials with capped exponential backoff,
// re-registers (the daemon accepts an idempotent re-register for an
// identical model structure), and re-sends every request that was still
// awaiting a reply. The daemon deduplicates a re-sent DO_CHECKPOINT by
// (model, iteration), so a retry after reconnect never double-executes.
package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// restoreKey is the sentinel iteration for restore waiters: the client
// cannot know the restored iteration in advance, so all restore replies
// match this key.
const restoreKey = ^uint64(0)

// busyBackoffCap caps the doubled client-side BUSY backoff; the
// daemon's RetryAfter hint is trusted beyond it.
const busyBackoffCap = 100 * time.Millisecond

// reconnectBackoffCap caps the doubled delay between redials.
const reconnectBackoffCap = 500 * time.Millisecond

// Client is one registered model's handle to the Portus daemon.
type Client struct {
	node  *rdma.Node
	model *gpu.PlacedModel
	mrs   []rdma.MR
	opts  Options

	// regMsg is the registration packet, kept for reconnect handshakes.
	regMsg *wire.Msg

	mu     sync.Mutex
	conn   wire.Conn
	closed bool
	// lost is set once the receive loop has given up on the connection:
	// nobody is left to release a waiter, so later requests fail with it
	// instead of arming one.
	lost    error
	pending map[pendingKey]*reply
	// order preserves waiter arming order for uncorrelated errors and
	// deterministic post-reconnect re-sends.
	order []pendingKey

	// Stalled accumulates training time lost waiting for checkpoint
	// completion (sync waits plus async update-phase stalls).
	Stalled time.Duration

	// Telemetry handles; nil (a no-op) unless Options.Telemetry was set.
	errs        *telemetry.Counter
	reconnects  *telemetry.Counter
	busyRetries *telemetry.Counter
	syncLat     *telemetry.Histogram
	ckptLat     *telemetry.Histogram
	restoreLat  *telemetry.Histogram
}

type pendingKey struct {
	t    wire.Type
	iter uint64
}

type reply struct {
	sig *sim.Signal
	msg *wire.Msg
	// req is the request this waiter was armed with. Every re-send —
	// after BUSY, NO_SPACE or a reconnect — replays it as it is, so the
	// daemon sees the same trace identity, pinned iteration and digest
	// vector on every try.
	req *wire.Msg
	// busy counts the backpressure bounces this request has absorbed,
	// bounding the re-send loop and scaling its backoff.
	busy int
	// The client-side span tree under construction; mutated only under
	// Client.mu until the report is shipped.
	trace *telemetry.Trace
	await *telemetry.Span
}

// traceID is the client-minted identity the request carries.
func (r *reply) traceID() telemetry.TraceID { return telemetry.TraceID(r.req.TraceID) }

// waiterKey maps a request to the key its reply — or a BUSY or ERROR
// correlated to it by InReplyTo — releases.
func waiterKey(req wire.Type, iter uint64) (pendingKey, bool) {
	switch req {
	case wire.TRegister:
		return pendingKey{t: wire.TRegisterOK}, true
	case wire.TDoCheckpoint:
		return pendingKey{t: wire.TCheckpointDone, iter: iter}, true
	case wire.TRestore:
		return pendingKey{t: wire.TRestoreDone, iter: restoreKey}, true
	}
	return pendingKey{}, false
}

// ErrNoCheckpoint reports a restore (or pinned dump) that found no
// committed checkpoint version to serve. Match with errors.Is.
var ErrNoCheckpoint = errors.New("client: no committed checkpoint to restore")

// ErrCorruptReplica reports a stored copy that failed its CRC
// integrity check; a replicated router fails over to another replica.
// Match with errors.Is.
var ErrCorruptReplica = errors.New("client: checkpoint copy failed integrity check")

// ErrUnreachable reports transport loss — the connection died or a
// request deadline expired with the daemon silent. Routers treat it as
// a suspect-node signal rather than an application error. Match with
// errors.Is.
var ErrUnreachable = errors.New("client: daemon unreachable")

// ErrNoSpace reports that the daemon's persistent namespace stayed out
// of space even after online reclamation, and the client exhausted its
// retry budget waiting for room. Match with errors.Is.
var ErrNoSpace = errors.New("client: daemon out of PMem space")

func (r *reply) wait(env sim.Env) (*wire.Msg, error) {
	r.sig.Wait(env)
	if r.msg.Type == wire.TError {
		// Map the daemon's machine-readable classification (or the code
		// this client stamped on a locally-fabricated error) to a typed
		// sentinel; unclassified errors stay generic.
		switch r.msg.Code {
		case wire.ErrCodeNoCheckpoint:
			return nil, fmt.Errorf("%w: %s", ErrNoCheckpoint, r.msg.Error)
		case wire.ErrCodeCorrupt:
			return nil, fmt.Errorf("%w: %s", ErrCorruptReplica, r.msg.Error)
		case wire.ErrCodeUnreachable:
			return nil, fmt.Errorf("%w: %s", ErrUnreachable, r.msg.Error)
		case wire.ErrCodeNoSpace:
			return nil, fmt.Errorf("%w: %s", ErrNoSpace, r.msg.Error)
		}
		return nil, fmt.Errorf("daemon error: %s", r.msg.Error)
	}
	return r.msg, nil
}

// Options tunes registration.
type Options struct {
	// FabricAddr is this client's soft-RDMA agent address, shipped in
	// the registration packet so the daemon's fabric can reach the
	// client's memory regions across processes (TCP deployments only).
	FabricAddr string
	// Telemetry, when set, receives client-side checkpoint/restore
	// latency histograms and error/reconnect counters labeled by model.
	Telemetry *telemetry.Registry
	// Dialer, when set, enables automatic reconnect: after a
	// control-plane failure the client redials, re-registers, and
	// re-sends its outstanding requests instead of failing them.
	Dialer func(env sim.Env) (wire.Conn, error)
	// ReconnectMax caps consecutive reconnect attempts before the
	// client gives up and fails its waiters; 0 defaults to 8.
	ReconnectMax int
	// ReconnectBackoff is the delay before the second reconnect
	// attempt, doubling per attempt up to 500ms; 0 defaults to 2ms.
	ReconnectBackoff time.Duration
	// RequestTimeout fails any single request not answered within it
	// with a deadline error; 0 disables deadlines.
	RequestTimeout time.Duration
	// BusyRetryMax caps how many BUSY backpressure bounces one request
	// absorbs before it fails; 0 defaults to 16.
	BusyRetryMax int
	// BusyBackoff is the client-side floor for the first re-send delay
	// after a BUSY, doubling per bounce; the daemon's RetryAfter hint
	// is honored when it is longer. 0 defaults to 1ms.
	BusyBackoff time.Duration
	// DeltaBlockBytes enables incremental checkpointing: every
	// DO_CHECKPOINT carries a per-block digest vector at this block
	// size, letting a delta-enabled daemon pull only the blocks that
	// changed since the previous version and copy the rest forward
	// inside PMem. 0 disables it (full checkpoints, the pre-delta wire
	// shape).
	DeltaBlockBytes int64
}

// Register collects tensor pointers, registers each as an RDMA MR, and
// sends the registration packet. It blocks until the daemon acknowledges
// the three-level index is ready.
func Register(env sim.Env, conn wire.Conn, node *rdma.Node, m *gpu.PlacedModel) (*Client, error) {
	return RegisterOpts(env, conn, node, m, Options{})
}

// orDefault resolves an option left at zero (or below) to its default.
func orDefault[T int | time.Duration](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// RegisterOpts is Register with explicit options.
func RegisterOpts(env sim.Env, conn wire.Conn, node *rdma.Node, m *gpu.PlacedModel, opts Options) (*Client, error) {
	opts.ReconnectMax = orDefault(opts.ReconnectMax, 8)
	opts.ReconnectBackoff = orDefault(opts.ReconnectBackoff, 2*time.Millisecond)
	opts.BusyRetryMax = orDefault(opts.BusyRetryMax, 16)
	opts.BusyBackoff = orDefault(opts.BusyBackoff, time.Millisecond)
	c := &Client{
		conn:    conn,
		node:    node,
		model:   m,
		opts:    opts,
		pending: make(map[pendingKey]*reply),
	}
	// Reconnects and busy retries are always counted — Reconnects() and
	// BusyRetries() must report the truth even when no telemetry
	// registry is wired up.
	c.reconnects = &telemetry.Counter{}
	c.busyRetries = &telemetry.Counter{}
	if reg := opts.Telemetry; reg != nil {
		ml := telemetry.L("model", m.Spec.Name)
		c.errs = reg.Counter("portus_client_errors_total", "client-visible daemon/connection errors", ml)
		c.reconnects = reg.Counter("portus_client_reconnects_total", "control-plane reconnects this client performed", ml)
		c.busyRetries = reg.Counter("portus_client_busy_retries_total", "requests re-sent after a BUSY backpressure reply", ml)
		c.syncLat = reg.Histogram("portus_client_checkpoint_sync_seconds", "blocking checkpoint latency as seen by training", nil, ml)
		c.ckptLat = reg.Histogram("portus_client_checkpoint_seconds", "request-to-commit checkpoint latency (sync and async)", nil, ml)
		c.restoreLat = reg.Histogram("portus_client_restore_seconds", "restore latency as seen by training", nil, ml)
	}
	// Queue-pair setup plus pinning the tensor address space for DMA —
	// paid once per training job thanks to the pre-allocated version
	// slots (§III-D2).
	regGiB := float64(m.Spec.TotalSize()) / float64(1<<30)
	env.Sleep(perfmodel.QPConnectCost +
		time.Duration(regGiB*float64(perfmodel.MRRegisterPerGiB)))
	msg := &wire.Msg{Type: wire.TRegister, Model: m.Spec.Name, ClientNode: node.Name(), FabricAddr: opts.FabricAddr}
	for i, tm := range m.Spec.Tensors {
		mr := node.RegisterMR(env, m.GPU.Mem(), m.Offs[i], tm.Size)
		c.mrs = append(c.mrs, mr)
		msg.Tensors = append(msg.Tensors, wire.TensorRef{
			Name: tm.Name, DType: uint8(tm.DType), Dims: tm.Dims, Size: tm.Size, RKey: mr.RKey,
		})
	}
	c.regMsg = msg
	r, err := c.send(env, msg)
	if err != nil {
		return nil, fmt.Errorf("client: sending registration: %w", err)
	}
	env.Go("portus-client-recv", c.recvLoop)
	if _, err := r.wait(env); err != nil {
		return nil, fmt.Errorf("client: registering %s: %w", m.Spec.Name, err)
	}
	return c, nil
}

// recvLoop dispatches daemon replies to their waiters. On a connection
// failure it reconnects when a dialer is configured; only when
// reconnecting is impossible (or exhausted) does it fail the waiters.
func (c *Client) recvLoop(env sim.Env) {
	for {
		c.mu.Lock()
		conn := c.conn
		c.mu.Unlock()
		m, err := conn.Recv(env)
		if err != nil {
			if c.reconnect(env) {
				continue
			}
			// Connection gone for good: release every waiter, oldest
			// first, with an error.
			c.mu.Lock()
			for _, k := range c.order {
				r := c.pending[k]
				r.msg = &wire.Msg{Type: wire.TError, Code: wire.ErrCodeUnreachable, Error: err.Error()}
				r.sig.Fire(env)
				delete(c.pending, k)
			}
			c.order = nil
			c.lost = err
			c.mu.Unlock()
			return
		}
		switch {
		case m.Type == wire.TBusy:
			c.backOff(env, m) // with no waiter to re-send for, a BUSY is dropped
			continue
		case m.Type == wire.TError && m.Code == wire.ErrCodeNoSpace && m.InReplyTo == wire.TRegister && m.RetryAfter > 0:
			// Admission was refused transiently: another tenant's delete
			// or a repack may free room. Without a waiter the reply falls
			// through to normal error delivery.
			if c.backOff(env, m) {
				continue
			}
		}
		key := pendingKey{t: m.Type, iter: m.Iteration}
		if m.Type == wire.TRestoreDone {
			key.iter = restoreKey
		}
		c.mu.Lock()
		if m.Type == wire.TError {
			c.releaseErrorLocked(env, m)
			c.mu.Unlock()
			continue
		}
		if r, ok := c.pending[key]; ok {
			r.msg = m
			r.sig.Fire(env)
			c.removeLocked(key)
		}
		c.mu.Unlock()
	}
}

// backOff reacts to a transient refusal — BUSY (the daemon's queue was
// full) or a NO_SPACE registration reply with a retry-after hint — that
// left the request unadmitted. The waiter stays armed and a delayed
// process re-sends the stored request after the daemon's RetryAfter
// hint (or the client's own capped exponential backoff, whichever is
// longer). A request that keeps bouncing past BusyRetryMax fails with
// an error instead of retrying forever. It reports false when m
// correlates to no armed waiter.
func (c *Client) backOff(env sim.Env, m *wire.Msg) bool {
	key, ok := waiterKey(m.InReplyTo, m.Iteration)
	if !ok {
		return false
	}
	c.mu.Lock()
	r, ok := c.pending[key]
	if !ok {
		c.mu.Unlock()
		return false
	}
	r.busy++
	if max := c.opts.BusyRetryMax; r.busy > max {
		c.removeLocked(key)
		c.mu.Unlock()
		r.msg = &wire.Msg{Type: wire.TError, Code: m.Code, Error: fmt.Sprintf("gave up after %d retries: %s", max, m.Error)}
		if m.Type == wire.TBusy {
			r.msg.Error = fmt.Sprintf("daemon busy: gave up after %d retries of %s", max, m.InReplyTo)
		}
		r.sig.Fire(env)
		c.errs.Inc()
		return true
	}
	delay := sim.Backoff(c.opts.BusyBackoff, r.busy, busyBackoffCap)
	if m.RetryAfter > delay {
		delay = m.RetryAfter // the daemon knows its backlog better
	}
	c.mu.Unlock()
	c.busyRetries.Inc()
	busyAt := env.Now()
	env.Go("portus-client-busy-retry", func(env sim.Env) {
		env.Sleep(delay)
		c.mu.Lock()
		cur, ok := c.pending[key]
		conn := c.conn
		closed := c.closed
		var bw *telemetry.Span
		if ok && cur == r && !closed && r.await != nil {
			// The busy-wait span nests inside await, so the await span
			// still tiles the request window end to end.
			bw = r.await.Child("busy-wait", busyAt)
		}
		c.mu.Unlock()
		if !ok || cur != r || closed {
			return // answered (or deadline-failed) while we backed off
		}
		// A failed re-send surfaces on the receive loop, which owns
		// reconnect; the waiter stays armed either way.
		_ = conn.Send(env, r.req)
		if bw != nil {
			c.mu.Lock()
			bw.EndAt(env.Now())
			c.mu.Unlock()
		}
	})
	return true
}

// reconnect redials with capped exponential backoff, replays the
// registration handshake, and re-sends every request still awaiting a
// reply. It reports false when no dialer is configured, the client was
// closed, or the attempt budget is exhausted.
func (c *Client) reconnect(env sim.Env) bool {
	c.mu.Lock()
	dialer := c.opts.Dialer
	closed := c.closed
	c.mu.Unlock()
	if dialer == nil || closed {
		return false
	}
	for attempt := 1; attempt <= c.opts.ReconnectMax; attempt++ {
		if attempt > 1 {
			env.Sleep(sim.Backoff(c.opts.ReconnectBackoff, attempt-1, reconnectBackoffCap))
		}
		conn, err := dialer(env)
		if err != nil {
			continue
		}
		// Re-register before anything else: the daemon accepts an
		// idempotent re-register for an identical structure, and no
		// other reply can arrive on a fresh connection first.
		m, err := wire.Call(env, conn, c.regMsg, wire.TRegisterOK)
		if err != nil {
			conn.Close()
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return false
		}
		c.conn = conn
		// The original registration may itself have raced the drop;
		// this handshake just answered it.
		regKey := pendingKey{t: wire.TRegisterOK}
		var regWaiter *reply
		if r, ok := c.pending[regKey]; ok {
			regWaiter = r
			r.msg = m
			c.removeLocked(regKey)
		}
		// Re-send the outstanding requests in arming order. The daemon
		// dedups a DO_CHECKPOINT whose iteration committed (or is in
		// flight), so retries never double-execute.
		resend := make([]*wire.Msg, 0, len(c.order))
		for _, k := range c.order {
			resend = append(resend, c.pending[k].req)
		}
		c.mu.Unlock()
		if regWaiter != nil {
			regWaiter.sig.Fire(env)
		}
		c.reconnects.Inc()
		for _, msg := range resend {
			if err := conn.Send(env, msg); err != nil {
				break // Recv will observe the failure and reconnect again
			}
		}
		return true
	}
	return false
}

// send arms a waiter holding req, then ships req. The waiter is armed
// first so a fast reply cannot be dropped. With a request timeout
// configured, a deadline process fails the waiter if no reply (or
// reconnect re-delivery) lands in time. If the send fails but the
// client can reconnect, the waiter stays armed: the receive loop's
// reconnect handshake re-sends every outstanding request, so the caller
// keeps waiting as if the send had succeeded. Otherwise the waiter is
// removed — leaving it armed would let a later uncorrelated ERROR
// release the stale waiter instead of a live one. Once the receive loop
// has given up (c.lost) nothing is armed at all: a write to a socket
// the peer closed can still succeed, and that waiter would never fire.
func (c *Client) send(env sim.Env, req *wire.Msg) (*reply, error) {
	r := &reply{sig: sim.NewSignal(env), req: req}
	key, _ := waiterKey(req.Type, req.Iteration)
	c.mu.Lock()
	if err := c.lost; err != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	c.pending[key] = r
	c.order = append(c.order, key)
	conn := c.conn
	canHeal := c.opts.Dialer != nil && !c.closed
	c.mu.Unlock()
	if d := c.opts.RequestTimeout; d > 0 {
		env.Go("portus-client-deadline", func(env sim.Env) {
			env.Sleep(d)
			c.mu.Lock()
			if cur, ok := c.pending[key]; !ok || cur != r {
				// Answered in time (or the key was re-armed by a newer
				// request — never fail someone else's waiter).
				c.mu.Unlock()
				return
			}
			c.removeLocked(key)
			c.mu.Unlock()
			r.msg = &wire.Msg{Type: wire.TError, Code: wire.ErrCodeUnreachable, Error: fmt.Sprintf("request deadline %v exceeded waiting for %s", d, key.t)}
			r.sig.Fire(env)
		})
	}
	if err := conn.Send(env, req); err != nil && !canHeal {
		c.mu.Lock()
		c.removeLocked(key)
		c.mu.Unlock()
		return nil, err
	}
	return r, nil
}

// removeLocked drops a released waiter from the map and the order list.
func (c *Client) removeLocked(key pendingKey) {
	delete(c.pending, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// releaseErrorLocked routes an ERROR to its waiter. Correlated errors
// (InReplyTo set by the daemon) release the exact waiter; uncorrelated
// ones release the oldest, deterministically.
func (c *Client) releaseErrorLocked(env sim.Env, m *wire.Msg) {
	key, _ := waiterKey(m.InReplyTo, m.Iteration)
	r, ok := c.pending[key]
	if !ok {
		if len(c.order) == 0 {
			return
		}
		key = c.order[0]
		r = c.pending[key]
	}
	r.msg = m
	r.sig.Fire(env)
	c.removeLocked(key)
}

// CheckpointSync persists the current weights and blocks until the
// daemon commits the version.
func (c *Client) CheckpointSync(env sim.Env, iteration uint64) error {
	start := env.Now()
	cp, err := c.CheckpointAsync(env, iteration)
	if err != nil {
		return err
	}
	if err := cp.Wait(env); err != nil {
		return fmt.Errorf("client: checkpoint %d: %w", iteration, err)
	}
	c.Stalled += env.Now() - start
	c.syncLat.ObserveDurationTraced(env.Now()-start, cp.r.traceID())
	return nil
}

// request ships req under trace tr: a "send" span covers arming the
// waiter and the control-plane send, an "await" span everything after
// it. The trace ID and the await span's ID ride on the wire — on every
// re-send too, since the waiter replays req — so the daemon adopts the
// same identity across retries and grafts its own span tree under await
// when the two halves are stitched. It returns the armed waiter and the
// time the send completed.
func (c *Client) request(env sim.Env, tr *telemetry.Trace, req *wire.Msg) (*reply, time.Duration, error) {
	send := tr.Root.Child("send", env.Now())
	req.TraceID, req.SpanID = uint64(tr.ID), telemetry.NextSpanID()
	r, err := c.send(env, req)
	if err != nil {
		c.errs.Inc()
		return nil, 0, fmt.Errorf("client: %s: %w", req.Type, err)
	}
	now := env.Now()
	send.EndAt(now)
	await := tr.Root.Child("await", now)
	await.ID = req.SpanID
	c.mu.Lock()
	r.trace, r.await = tr, await
	c.mu.Unlock()
	return r, now, nil
}

// CheckpointAsync sends DO_CHECKPOINT and returns a completion handle
// without waiting. It mints the request's "client:checkpoint" trace
// (see request).
func (c *Client) CheckpointAsync(env sim.Env, iteration uint64) (*Completion, error) {
	t0 := env.Now()
	tr := telemetry.NewTrace("client:checkpoint", c.model.Spec.Name, iteration, t0)
	tr.ID = telemetry.NewTraceID()
	// With delta enabled, fingerprint the resident weights before the
	// request goes out: the digest vector rides on DO_CHECKPOINT so the
	// daemon can pull only the blocks that changed. The hash pass is
	// charged to the client's virtual clock (it is memory-bandwidth
	// bound, ~40ms for a 6 GB model — small next to the transfer it
	// saves); on a real environment the pass itself is the cost.
	var digests []uint64
	if block := c.opts.DeltaBlockBytes; block > 0 {
		dg := tr.Root.Child("digest", t0)
		digests = c.model.BlockDigests(block)
		sim.Charge(env, perfmodel.DigestTime(c.model.Spec.TotalSize()))
		dg.EndAt(env.Now())
	}
	r, sent, err := c.request(env, tr, &wire.Msg{Type: wire.TDoCheckpoint, Model: c.model.Spec.Name, Iteration: iteration,
		Digests: digests, DeltaBlock: c.opts.DeltaBlockBytes})
	if err != nil {
		return nil, err
	}
	return &Completion{r: r, c: c, start: sent}, nil
}

// finishTrace closes a request's client-side spans and ships the span
// tree to the daemon as a TRACE_REPORT so the daemon can stitch the
// end-to-end trace. The send happens on a spawned process: under the
// simulation engine a control-plane send sleeps the sender, and the
// report must never charge that latency to the training loop. Span
// mutation and encoding happen under c.mu (a late busy-retry process
// touches the same tree under the same lock).
func (c *Client) finishTrace(env sim.Env, r *reply, iteration uint64, err error) {
	c.mu.Lock()
	tr, await := r.trace, r.await
	r.trace, r.await = nil, nil // report at most once
	conn := c.conn
	if tr == nil {
		c.mu.Unlock()
		return
	}
	now := env.Now()
	await.EndAt(now)
	tr.Finish(now)
	if iteration != 0 {
		tr.Iteration = iteration
	}
	if err != nil {
		tr.Err = err.Error()
	}
	payload, jerr := json.Marshal(tr.Root)
	c.mu.Unlock()
	if jerr != nil {
		return
	}
	report := &wire.Msg{Type: wire.TTraceReport, Model: tr.Model, Iteration: tr.Iteration,
		TraceID: uint64(tr.ID), Payload: payload}
	env.Go("portus-client-trace-report", func(env sim.Env) {
		_ = conn.Send(env, report)
	})
}

// Completion is an in-flight checkpoint handle.
type Completion struct {
	r     *reply
	c     *Client
	start time.Duration
	err   error
	ok    bool
}

// Wait blocks until the checkpoint commits.
func (cp *Completion) Wait(env sim.Env) error {
	if cp.ok {
		return cp.err
	}
	_, err := cp.r.wait(env)
	cp.ok = true
	cp.err = err
	if cp.c != nil {
		if err != nil {
			cp.c.errs.Inc()
		} else {
			cp.c.ckptLat.ObserveDurationTraced(env.Now()-cp.start, cp.r.traceID())
		}
		cp.c.finishTrace(env, cp.r, 0, err)
	}
	return err
}

// Done reports completion without blocking.
func (cp *Completion) Done(env sim.Env) bool {
	return cp.ok || cp.r.sig.Fired(env)
}

// CRC returns the content fingerprint the daemon stamped on the
// CHECKPOINT_DONE reply — meaningful only after Wait returned nil.
// Replicated routers compare it across copies and record it in the
// group manifest.
func (cp *Completion) CRC() uint64 {
	if cp.ok && cp.err == nil && cp.r.msg != nil {
		return cp.r.msg.CRC
	}
	return 0
}

// Restore asks the daemon to write the newest complete version into GPU
// memory (the model object must already be placed, "empty"), blocking
// until the write completes. It returns the restored iteration.
func (c *Client) Restore(env sim.Env) (uint64, error) {
	return c.restore(env, 0)
}

// RestoreAt is Restore pinned to an exact iteration: the daemon serves
// the version slot holding it, or fails if that iteration is not a
// complete version on PMem. Group restores use this to land every
// shard on the manifest's group-committed iteration.
func (c *Client) RestoreAt(env sim.Env, iteration uint64) (uint64, error) {
	if iteration == 0 {
		return 0, fmt.Errorf("client: RestoreAt: iteration must be nonzero")
	}
	return c.restore(env, iteration)
}

func (c *Client) restore(env sim.Env, iteration uint64) (uint64, error) {
	start := env.Now()
	tr := telemetry.NewTrace("client:restore", c.model.Spec.Name, iteration, start)
	tr.ID = telemetry.NewTraceID()
	r, _, err := c.request(env, tr, &wire.Msg{Type: wire.TRestore, Model: c.model.Spec.Name, Iteration: iteration})
	if err != nil {
		return 0, err
	}
	m, err := r.wait(env)
	if err != nil {
		c.errs.Inc()
		c.finishTrace(env, r, 0, err)
		return 0, fmt.Errorf("client: restore: %w", err)
	}
	c.model.Iteration = m.Iteration
	c.restoreLat.ObserveDurationTraced(env.Now()-start, tr.ID)
	c.finishTrace(env, r, m.Iteration, nil)
	return m.Iteration, nil
}

// Reconnects reports how many control-plane reconnects this client has
// performed (0 when telemetry is disabled).
func (c *Client) Reconnects() int64 { return c.reconnects.Value() }

// BusyRetries reports how many requests this client re-sent after a
// BUSY backpressure reply.
func (c *Client) BusyRetries() int64 { return c.busyRetries.Value() }

// MRCount reports how many memory regions this client registered.
func (c *Client) MRCount() int { return len(c.mrs) }

// Model returns the placed model this client serves.
func (c *Client) Model() *gpu.PlacedModel { return c.model }

// Close tears down the control connection and disables reconnect.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	return conn.Close()
}
