// Package daemon implements the Portus Daemon: the user-space service on
// the storage node that owns the devdax PMem namespace and performs all
// checkpoint data movement (§III-B).
//
// On registration it builds the model's three-level index — ModelTable
// entry, MIndex record, and two pre-allocated TensorData version slots
// per tensor — and enters it in the in-DRAM ModelMap: one name → tenant
// map holding the single live handle onto each stored model's MIndex
// (loaded once at startup, created at admission, dropped at delete)
// plus, while a client is attached, its GPU memory regions. On
// DO_CHECKPOINT a thread-pool worker pulls every tensor from the
// client's GPU memory with one-sided RDMA READs directly into PMem: no
// serialization, no kernel crossings, no intermediate copies. Restore
// is the inverse — one-sided RDMA WRITEs from PMem into GPU memory.
//
// Crash consistency follows the paper's double-mapping scheme (Fig. 6),
// implemented once, in commit: the target version slot is marked active
// (8-byte failure-atomic persist) before any data moves, its TensorData
// is flushed, and only then is the slot marked done — so recovery
// always finds the newest complete version. Checkpoints and
// anti-entropy LOADs both go through that one transaction.
package daemon

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/portus-sys/portus/internal/datapath"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/placement"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sched"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/store"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// tableCap bounds the ModelTable of a namespace this daemon formats.
const tableCap = 512

// traceDepth sizes the ring buffer of completed checkpoint/restore
// traces.
const traceDepth = 64

// Config parameterizes a daemon.
type Config struct {
	PMem   *pmem.Device
	RNode  *rdma.Node
	Fabric rdma.Fabric
	// NodeName identifies this daemon's storage node within a
	// multi-daemon group; defaults to the RDMA node's name. Reported in
	// LIST responses and checked against the placement table.
	NodeName string
	// Group is the storage tier's placement table, shared by every
	// member daemon. Nil means a single-node group containing only this
	// daemon (the classic topology); registrations for models the table
	// assigns elsewhere are refused, steering stale clients to re-fetch
	// routing via PLACEMENT.
	Group *placement.Map
	// Replicas is the group's replication factor: a registration is
	// accepted when this node is any of the model's top-Replicas
	// rendezvous owners, not just the primary. 0 or 1 means unreplicated
	// (the classic topology).
	Replicas int
	// Workers sizes the thread pool; defaults to 8.
	Workers int
	// QueueCap bounds the requests queued across all models before the
	// daemon answers BUSY; 0 defaults to 64, negative means unbounded.
	QueueCap int
	// ModelQueueCap bounds the requests queued per model; 0 defaults to
	// 8, negative means unbounded.
	ModelQueueCap int
	// Strategy is how one chunk moves between the client and PMem; nil
	// means datapath.OneSided, the paper's zero-copy verbs. The two-sided
	// and host-staged variants exist for the ablations (DESIGN.md §5).
	Strategy datapath.Strategy
	// PipelineDepth bounds the chunks in flight past the pull stage:
	// depth 1 (the default) is the strictly sequential
	// pull-everything-then-flush datapath; depth d >= 2 overlaps the
	// PMem flush of chunk N with the pull of chunk N+1.
	PipelineDepth int
	// Lanes is the number of queue pairs checkpoint/restore transfers
	// stripe chunks across; defaults to 1. Each lane beyond the first
	// pays one queue-pair connection at daemon startup.
	Lanes int
	// ChunkSize splits tensors into transfer chunks of at most this
	// many bytes; 0 (the default) keeps one chunk per tensor. Pipelining
	// and striping schedule whole chunks, so splitting only matters for
	// models dominated by a few huge tensors.
	ChunkSize int64
	// RetryMax bounds per-chunk transfer/flush attempts on transient
	// errors: 0 defaults to 3, negative disables retry (one attempt).
	RetryMax int
	// RetryBackoff is the delay before a chunk's second attempt,
	// doubling per further attempt; 0 defaults to 100µs, negative
	// disables backoff.
	RetryBackoff time.Duration
	// Flush overrides the PMem data-zone flush (fault injection); nil
	// uses PMem.FlushData, which cannot fail.
	Flush func(off, n int64) error
	// Telemetry receives the daemon's counters, gauges, and latency
	// histograms; nil creates a private registry (readable through
	// Daemon.Telemetry).
	Telemetry *telemetry.Registry
	// SlowBudget is the slow-transfer watchdog's latency budget: any
	// checkpoint or restore whose end-to-end (daemon-side) duration
	// exceeds it increments portus_slow_transfers_total and snapshots
	// its trace plus the surrounding flight-recorder window. 0 disables
	// the watchdog.
	SlowBudget time.Duration
	// DeltaEnabled accepts incremental checkpoints: a DO_CHECKPOINT
	// carrying a block-digest vector is diffed against the previous
	// version's persisted digest table, only the dirty blocks are pulled
	// over the fabric, and the clean blocks copy forward inside PMem.
	// Off by default; digest vectors from delta clients are then ignored
	// (full checkpoint, counted as a fallback).
	DeltaEnabled bool
	// DeltaBlockBytes, when nonzero, pins the digest block size this
	// daemon accepts: a client vector at any other block size falls back
	// to a full checkpoint. 0 accepts whatever block size the client
	// used.
	DeltaBlockBytes int64
}

// Daemon is a running Portus server.
type Daemon struct {
	// cfg is the configuration with every default resolved by New:
	// NodeName, Group, Replicas (>= 1) and Flush are never zero, and
	// Fabric is the instrumented one.
	cfg Config
	// eng is the storage engine owning the PMem namespace: transactional
	// admission, capacity accounting, and online reclamation all route
	// through it.
	eng *store.Engine
	// cx is the half of every transfer's datapath context that never
	// changes: the instrumented fabric, this node, the MR covering the
	// whole data zone (verbs address TensorData by offset within it),
	// and the server-DRAM staging resource the host-staged strategy
	// charges.
	cx datapath.Context

	// repackMu guards pass: the single in-flight online repack pass
	// (nil when none). Passes never overlap; a trigger arriving during
	// one joins it instead.
	repackMu sync.Mutex
	pass     *repackPass

	// sched owns admission, dedup, coalescing, ordering, and
	// backpressure for every checkpoint/restore request; the daemon's
	// request path is a thin shim around Submit/Next/Done.
	sched *sched.Scheduler

	// mu guards tenants — the ModelMap — and each tenant's mrs.
	mu      sync.Mutex
	tenants map[string]*tenant

	// connMu guards the set of live control connections; Halt closes
	// them all so a killed node's clients see the peer reset instead of
	// waiting on a silent daemon.
	connMu sync.Mutex
	conns  map[wire.Conn]struct{}

	tel *telem

	// engine executes checkpoint pulls and restore pushes over the
	// chunked, optionally pipelined/striped datapath.
	engine *datapath.Engine
}

// orDefault resolves a retry knob left at zero to its default. Negative
// values pass through: the datapath engine reads any non-positive
// attempt bound or backoff as "off".
func orDefault[T int | time.Duration](v, def T) T {
	if v == 0 {
		return def
	}
	return v
}

// New opens (or formats) the namespace and starts the worker pool.
func New(env sim.Env, cfg Config) (*Daemon, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	// The telemetry bundle comes first so the storage engine's gauges
	// land in the same registry.
	tel := newTelem(cfg.Telemetry, cfg.SlowBudget, cfg.PMem)
	eng, err := store.Open(store.Config{
		PMem:      cfg.PMem,
		TableCap:  tableCap,
		Telemetry: tel.reg,
		Events:    tel.events,
	})
	if err != nil {
		return nil, fmt.Errorf("daemon: opening namespace: %w", err)
	}
	if cfg.NodeName == "" {
		cfg.NodeName = cfg.RNode.Name()
	}
	if cfg.Group == nil {
		// Classic single-node topology: a one-member table that assigns
		// everything to this daemon.
		cfg.Group, err = placement.New(placement.Node{Name: cfg.NodeName, Weight: cfg.PMem.DataSize()})
		if err != nil {
			return nil, fmt.Errorf("daemon: self placement: %w", err)
		}
	} else if _, ok := cfg.Group.Lookup(cfg.NodeName); !ok {
		return nil, fmt.Errorf("daemon: node %q is not a member of the placement map", cfg.NodeName)
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Flush == nil {
		pm := cfg.PMem
		cfg.Flush = func(off, n int64) error { pm.FlushData(off, n); return nil }
	}
	d := &Daemon{cfg: cfg, eng: eng, tel: tel, tenants: make(map[string]*tenant), conns: make(map[wire.Conn]struct{})}
	// Load the ModelMap from the persistent ModelTable (daemon restart):
	// the one time the index is scanned. Every later request reaches a
	// model through the handle loaded here or created at admission.
	models, err := eng.Index().Models()
	if err != nil {
		return nil, fmt.Errorf("daemon: rebuilding ModelMap: %w", err)
	}
	for _, m := range models {
		d.tenants[m.Name] = &tenant{model: m}
	}
	d.sched = sched.New(env, sched.Config{
		ModelQueueCap: cfg.ModelQueueCap,
		GlobalCap:     cfg.QueueCap,
		Workers:       cfg.Workers,
		Telemetry:     d.tel.reg,
		Events:        d.tel.events,
	})
	// The queue-depth gauge samples the scheduler — the single source of
	// truth — instead of mirroring it in a second atomic.
	d.tel.reg.GaugeFunc("portus_daemon_queue_depth", "requests queued in the scheduler but not yet picked up by a worker",
		func() float64 { return float64(d.sched.QueueDepth()) })
	// Route all data-plane verbs through the instrumented fabric so
	// per-op bytes and latency land in the registry.
	d.cfg.Fabric = rdma.Instrument("data", cfg.Fabric, d.tel.reg)
	d.cx = datapath.Context{
		Fabric:    d.cfg.Fabric,
		Local:     cfg.RNode,
		LocalMR:   cfg.RNode.RegisterMR(env, cfg.PMem.Data(), 0, cfg.PMem.DataSize()),
		HostStage: sim.NewBandwidthResource(env, "daemon/host-stage", perfmodel.ServerDRAMBW),
	}
	// The ablation variants are datapath strategies, not branches: the
	// engine's chunking, pipelining, and lane striping apply to all of
	// them uniformly. A nil Strategy is the engine's default, OneSided.
	d.engine = datapath.New(datapath.Config{
		Strategy:  cfg.Strategy,
		Depth:     cfg.PipelineDepth,
		Lanes:     rdma.ConnectLanes(env, cfg.RNode, cfg.Lanes),
		IssueCost: perfmodel.RDMAReadIssueCost,
		Flush:     cfg.Flush,
		FlushCost: flushCost,
		Retry: datapath.RetryPolicy{
			MaxAttempts: orDefault(cfg.RetryMax, 3),
			Backoff:     orDefault(cfg.RetryBackoff, 100*time.Microsecond),
		},
		Metrics: datapath.Metrics{
			Retries: tel.reg.Counter("portus_datapath_retries_total", "chunk transfers and flushes re-attempted after a transient error"),
			Events:  tel.events,
		},
	})
	for w := 0; w < cfg.Workers; w++ {
		env.Go(fmt.Sprintf("portusd-worker-%d", w), d.worker)
	}
	return d, nil
}

// Store exposes the persistent index (for portusctl and tests). Handles
// it loads are fresh copies; the daemon's own request paths never go
// through it.
func (d *Daemon) Store() *index.Store { return d.eng.Index() }

// Engine exposes the storage engine (capacity stats, online repack).
func (d *Daemon) Engine() *store.Engine { return d.eng }

// NodeName is this daemon's storage-node identity within its group.
func (d *Daemon) NodeName() string { return d.cfg.NodeName }

// Group exposes the placement table this daemon serves PLACEMENT from.
func (d *Daemon) Group() *placement.Map { return d.cfg.Group }

// Replicas is the group's replication factor as this daemon enforces
// it (>= 1).
func (d *Daemon) Replicas() int { return d.cfg.Replicas }

// Halt stops the worker pool and severs every live control
// connection: workers blocked in Next return, queued tasks are
// dropped, later submissions are rejected with BUSY, and connected
// clients see the peer reset instead of waiting on a silent daemon.
// Whole-node fault injection uses it (together with closing the
// listener and cutting fabric routes) to make a storage node dead;
// a replacement daemon is a fresh New on a fresh namespace.
func (d *Daemon) Halt(env sim.Env) {
	d.sched.Close(env)
	// Swap the set out rather than close under the lock: each closing
	// connection's handler takes connMu to remove itself.
	d.connMu.Lock()
	conns := d.conns
	d.conns = make(map[wire.Conn]struct{})
	d.connMu.Unlock()
	for c := range conns {
		c.Close()
	}
}

// Serve accepts control connections until the listener closes.
func (d *Daemon) Serve(env sim.Env, l wire.Listener) {
	for {
		conn, err := l.Accept(env)
		if err != nil {
			return
		}
		env.Go("portusd-conn", func(env sim.Env) { d.handleConn(env, conn) })
	}
}

func (d *Daemon) handleConn(env sim.Env, conn wire.Conn) {
	d.connMu.Lock()
	d.conns[conn] = struct{}{}
	d.connMu.Unlock()
	defer func() {
		d.connMu.Lock()
		delete(d.conns, conn)
		d.connMu.Unlock()
	}()
	for {
		m, err := conn.Recv(env)
		if err != nil {
			return
		}
		switch m.Type {
		case wire.TRegister:
			d.handleRegister(env, conn, m)
		case wire.TDoCheckpoint:
			d.enqueue(env, conn, m, sched.ClassCheckpoint)
		case wire.TRestore:
			d.enqueue(env, conn, m, sched.ClassRestore)
		case wire.TList:
			d.handleList(env, conn)
		case wire.TDelete:
			d.handleDelete(env, conn, m)
		case wire.TDump:
			d.handleDump(env, conn, m)
		case wire.TLoad:
			d.handleLoad(env, conn, m)
		case wire.TRepack:
			d.handleRepack(env, conn)
		case wire.TPlacement:
			d.handlePlacement(env, conn)
		case wire.TTraceReport:
			d.handleTraceReport(m)
		default:
			// Echo the request's type so the client can correlate the
			// error to whichever waiter sent the malformed message.
			d.sendErrFor(env, conn, m.Type, m.Iteration, m.Model, fmt.Sprintf("unexpected message %s", m.Type))
		}
	}
}

// handleTraceReport stitches a client-reported span tree into the
// matching daemon trace. The report is fire-and-forget — no reply even
// on malformed payloads, since the client never waits on one — and
// reports for traces already evicted from the ring are dropped.
func (d *Daemon) handleTraceReport(m *wire.Msg) {
	var root telemetry.Span
	if m.TraceID == 0 || json.Unmarshal(m.Payload, &root) != nil {
		return
	}
	d.tel.traces.Stitch(telemetry.TraceID(m.TraceID), &root)
}

// handlePlacement answers with the group's placement table, letting a
// client configured with any single member discover the whole tier.
func (d *Daemon) handlePlacement(env sim.Env, conn wire.Conn) {
	resp := &wire.Msg{Type: wire.TPlacementResp, Epoch: d.cfg.Group.Epoch(), Replicas: d.cfg.Replicas}
	for _, n := range d.cfg.Group.Nodes() {
		resp.Placement = append(resp.Placement, wire.PlacementEntry{
			Node: n.Name, CtrlAddr: n.CtrlAddr, FabricAddr: n.FabricAddr, Weight: n.Weight,
		})
	}
	_ = conn.Send(env, resp)
}

// event stamps e with the current time and adds it to the flight
// recorder.
func (d *Daemon) event(env sim.Env, e telemetry.Event) {
	e.Time = env.Now()
	d.tel.events.Emit(e)
}

// errMsg builds the error reply correlated to a failing request, so the
// client can release the matching waiter and map code to a typed
// sentinel instead of string-matching.
func errMsg(inReplyTo wire.Type, code wire.ErrCode, iter uint64, model, msg string) *wire.Msg {
	return &wire.Msg{Type: wire.TError, InReplyTo: inReplyTo, Code: code, Iteration: iter, Model: model, Error: msg}
}

// send delivers one reply, counting it when it reports an error.
// Control-plane send failures mean the client is gone; the connection
// loop observes it on the next Recv.
func (d *Daemon) send(env sim.Env, conn wire.Conn, m *wire.Msg) {
	if m.Type == wire.TError {
		d.tel.errors.Inc()
	}
	_ = conn.Send(env, m)
}

// sendErrFor reports an unclassified error for a request.
func (d *Daemon) sendErrFor(env sim.Env, conn wire.Conn, inReplyTo wire.Type, iter uint64, model, msg string) {
	d.send(env, conn, errMsg(inReplyTo, wire.ErrCodeNone, iter, model, msg))
}

// Stats is a consistent snapshot of the daemon's cumulative counters:
//
//   - Registered, Checkpoints, Restores count successfully completed
//     registrations, committed checkpoint versions, and finished
//     restores.
//   - Errors counts every error the daemon has reported to a client
//     (malformed requests and datapath failures; BUSY backpressure
//     replies are counted separately in portus_sched_busy_replies_total).
//   - QueueDepth is the number of requests currently queued in the
//     scheduler but not yet picked up by a worker (an instantaneous
//     gauge read straight from the scheduler, not a cumulative count).
//   - BytesPulled and BytesPushed total the checkpoint (GPU→PMem) and
//     restore (PMem→GPU) data volumes.
//   - PullTime, FlushTime, and PushTime give the cumulative stage
//     breakdown of the datapath (Figure 13): one-sided READ pulls,
//     PMem flushes, and restore-side one-sided WRITE pushes.
type Stats struct {
	Registered  int64
	Checkpoints int64
	Restores    int64
	Errors      int64
	QueueDepth  int64
	BytesPulled int64
	BytesPushed int64
	PullTime    time.Duration
	FlushTime   time.Duration
	PushTime    time.Duration
}

// Stats snapshots the daemon counters; see Stats for field semantics.
// Every field is read from the accumulator behind the registry metric
// of the same meaning, so Stats and /metrics cannot disagree.
func (d *Daemon) Stats() Stats {
	t := d.tel
	return Stats{
		Registered:  t.registered.Value(),
		Checkpoints: t.checkpoints.Value(),
		Restores:    t.restores.Value(),
		Errors:      t.errors.Value(),
		QueueDepth:  d.sched.QueueDepth(),
		BytesPulled: t.bytesPulled.Value(),
		BytesPushed: t.bytesPushed.Value(),
		PullTime:    time.Duration(t.pullNanos.Load()),
		FlushTime:   time.Duration(t.flushNanos.Load()),
		PushTime:    time.Duration(t.pushNanos.Load()),
	}
}

// Telemetry exposes the daemon's metrics registry (served by the admin
// endpoint's /metrics).
func (d *Daemon) Telemetry() *telemetry.Registry { return d.tel.reg }

// Traces exposes the ring of recently completed checkpoint/restore
// traces (served by /debug/traces; portusd's -verbose log subscribes
// via OnComplete).
func (d *Daemon) Traces() *telemetry.TraceRing { return d.tel.traces }

// Events exposes the flight recorder — the bounded ring of typed
// scheduling/datapath/fault events (served by /debug/events).
func (d *Daemon) Events() *telemetry.EventRing { return d.tel.events }

// Watchdog exposes the slow-transfer watchdog (budget and captured
// incidents; served by /debug/events).
func (d *Daemon) Watchdog() *telemetry.Watchdog { return d.tel.watchdog }

// telem bundles the daemon's registered metric handles and the
// completed-trace ring. Each quantity has exactly one accumulator: the
// registry counter itself, or — for values a counter's integer cannot
// carry — the atomic a CounterFunc/GaugeFunc samples at scrape time.
type telem struct {
	reg      *telemetry.Registry
	traces   *telemetry.TraceRing
	events   *telemetry.EventRing
	watchdog *telemetry.Watchdog

	registered, checkpoints, restores, errors *telemetry.Counter
	bytesPulled, bytesPushed                  *telemetry.Counter
	dedups                                    *telemetry.Counter
	adminList, adminDump, adminDelete         *telemetry.Counter
	adminLoad, crcFailures                    *telemetry.Counter
	nospaceReplies                            *telemetry.Counter
	deltaSaved, deltaFallbacks                *telemetry.Counter

	// Cumulative stage times in integer nanoseconds (the Figure 13
	// breakdown), exported in seconds as portus_daemon_*_seconds_total.
	pullNanos, flushNanos, pushNanos atomic.Int64
	// deltaDirty holds the last accepted delta plan's dirty ratio as
	// float64 bits, served as portus_delta_dirty_ratio.
	deltaDirty atomic.Uint64

	ckptLatency    *telemetry.Histogram // enqueue → commit, end to end
	enqueueWait    *telemetry.Histogram
	pullStage      *telemetry.Histogram
	flushStage     *telemetry.Histogram
	pushStage      *telemetry.Histogram
	restoreLatency *telemetry.Histogram
}

// newTelem registers the daemon's metrics in reg; nil creates a private
// registry.
func newTelem(reg *telemetry.Registry, slowBudget time.Duration, pm *pmem.Device) *telem {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	t := &telem{
		reg:         reg,
		traces:      telemetry.NewTraceRing(traceDepth),
		events:      telemetry.NewEventRing(telemetry.DefEventDepth),
		registered:  reg.Counter("portus_daemon_registered_total", "model registrations accepted"),
		checkpoints: reg.Counter("portus_daemon_checkpoints_total", "checkpoint versions committed"),
		restores:    reg.Counter("portus_daemon_restores_total", "restores completed"),
		errors:      reg.Counter("portus_daemon_errors_total", "errors reported to clients"),
		bytesPulled: reg.Counter("portus_daemon_bytes_pulled_total", "checkpoint bytes pulled from GPU memory"),
		bytesPushed: reg.Counter("portus_daemon_bytes_pushed_total", "restore bytes pushed to GPU memory"),

		dedups: reg.Counter("portus_daemon_dedup_total", "retried requests deduplicated instead of double-executed"),

		adminList:   reg.Counter("portus_admin_ops_total", "admin operations served", telemetry.L("op", "list")),
		adminDump:   reg.Counter("portus_admin_ops_total", "admin operations served", telemetry.L("op", "dump")),
		adminDelete: reg.Counter("portus_admin_ops_total", "admin operations served", telemetry.L("op", "delete")),
		adminLoad:   reg.Counter("portus_admin_ops_total", "admin operations served", telemetry.L("op", "load")),

		crcFailures: reg.Counter("portus_daemon_crc_mismatch_total", "restore or load attempts that failed the stored-version CRC check"),

		nospaceReplies: reg.Counter("portus_store_nospace_replies_total", "registrations answered with a transient NO_SPACE retry-after (backpressure, not failures)"),

		deltaSaved:     reg.Counter("portus_delta_bytes_saved_total", "bytes an incremental checkpoint kept off the fabric (copy-forward + skipped blocks)"),
		deltaFallbacks: reg.Counter("portus_delta_full_fallbacks_total", "checkpoints that requested delta but ran full (missing/mismatched digest table, or delta costlier than full)"),

		ckptLatency:    reg.Histogram("portus_checkpoint_seconds", "end-to-end checkpoint latency (enqueue to commit)", nil),
		enqueueWait:    reg.Histogram("portus_checkpoint_enqueue_wait_seconds", "time a checkpoint job waits for a worker", nil),
		pullStage:      reg.Histogram("portus_checkpoint_pull_seconds", "one-sided RDMA pull stage duration", nil),
		flushStage:     reg.Histogram("portus_checkpoint_flush_seconds", "PMem flush stage duration", nil),
		pushStage:      reg.Histogram("portus_restore_push_seconds", "one-sided RDMA push stage duration", nil),
		restoreLatency: reg.Histogram("portus_restore_seconds", "end-to-end restore latency (enqueue to done)", nil),
	}
	reg.CounterFunc("portus_pmem_flush_ops_total", "data-zone flush operations",
		func() float64 { return float64(pm.DataFlushOps()) })
	reg.CounterFunc("portus_pmem_flush_bytes_total", "bytes covered by data-zone flushes",
		func() float64 { return float64(pm.DataFlushBytes()) })
	reg.CounterFunc("portus_pmem_meta_flush_ops_total", "metadata-zone flush operations (incl. version-flag commits)",
		func() float64 { return float64(pm.MetaFlushOps()) })
	reg.CounterFunc("portus_daemon_pull_seconds_total", "cumulative RDMA pull stage time",
		func() float64 { return time.Duration(t.pullNanos.Load()).Seconds() })
	reg.CounterFunc("portus_daemon_flush_seconds_total", "cumulative PMem flush stage time",
		func() float64 { return time.Duration(t.flushNanos.Load()).Seconds() })
	reg.CounterFunc("portus_daemon_push_seconds_total", "cumulative restore push stage time",
		func() float64 { return time.Duration(t.pushNanos.Load()).Seconds() })
	reg.GaugeFunc("portus_delta_dirty_ratio", "fraction of the model the last accepted incremental checkpoint pulled over the fabric",
		func() float64 { return math.Float64frombits(t.deltaDirty.Load()) })
	// The watchdog observes every completed trace as it lands in the
	// ring; stitching a client tree in later never re-triggers it.
	t.watchdog = telemetry.NewWatchdog(slowBudget, t.events,
		reg.Counter("portus_slow_transfers_total", "transfers whose end-to-end duration exceeded the slow-transfer budget"))
	t.traces.OnComplete(t.watchdog.Observe)
	return t
}
