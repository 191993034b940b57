package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"github.com/portus-sys/portus/internal/datapath"
	"github.com/portus-sys/portus/internal/delta"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/sched"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/store"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// enqueue routes a checkpoint/restore request into the scheduler, which
// owns admission, dedup, coalescing, and ordering under a single lock.
func (d *Daemon) enqueue(env sim.Env, conn wire.Conn, m *wire.Msg, class sched.Class) {
	model, mrs := d.find(m.Model)
	if mrs == nil {
		d.send(env, conn, errMsg(m.Type, wire.ErrCodeNotRegistered, m.Iteration, m.Model, "model not registered on this daemon"))
		return
	}
	d.submit(env, m, class, &reqCtx{req: m.Type, model: model, mrs: mrs, conn: conn, digests: m.Digests, deltaBlock: m.DeltaBlock})
}

// submit hands request m, bound to rc, to the scheduler.
func (d *Daemon) submit(env sim.Env, m *wire.Msg, class sched.Class, rc *reqCtx) {
	// A DO_CHECKPOINT retried after a reconnect (the original DONE was
	// lost with the connection), or a REPLICATE of a version this node
	// already holds, is keyed by (model, iteration): if that iteration
	// already committed, ack it from the index instead of
	// double-executing. (Iteration 0 names no version — doneSlot reads
	// it as "the newest" — so it is never deduplicated this way.)
	if class == sched.ClassCheckpoint && m.Iteration != 0 {
		if _, v, ok := doneSlot(rc.model, m.Iteration); ok {
			d.event(env, telemetry.Event{
				Kind: telemetry.EvSchedDedup, Model: m.Model, Iteration: m.Iteration,
				Trace: telemetry.TraceID(m.TraceID), Detail: "iteration already committed",
			})
			d.send(env, rc.conn, &wire.Msg{Type: wire.TCheckpointDone, Model: m.Model, Iteration: m.Iteration, CRC: v.CRC})
			return
		}
	}
	res := d.sched.Submit(env, &sched.Task{
		Model:      m.Model,
		Class:      class,
		Iteration:  m.Iteration,
		Exact:      rc.req == wire.TReplicate,
		EnqueuedAt: env.Now(),
		TraceID:    telemetry.TraceID(m.TraceID),
		ParentSpan: m.SpanID,
		Payload:    rc,
	})
	// A Deduped request is parked on the identical queued or running
	// task and answered when that completes; only a bounce is answered
	// now.
	if res.Verdict == sched.Rejected {
		// Backpressure, not an error: the client re-sends after the
		// hinted delay.
		d.send(env, rc.conn, &wire.Msg{
			Type: wire.TBusy, InReplyTo: m.Type, Iteration: m.Iteration,
			Model: m.Model, RetryAfter: res.RetryAfter,
		})
	}
}

// worker is one thread-pool member: it owns whole tasks, touching only
// its task's MIndex and TensorData (the paper's per-worker
// independence). Every task releases its lane (sched.Done) itself
// before fanning replies out; the Done here is an idempotent backstop
// so a missed path can never wedge a lane.
func (d *Daemon) worker(env sim.Env) {
	for {
		t, ok := d.sched.Next(env)
		if !ok {
			return
		}
		switch t.Class {
		case sched.ClassCheckpoint:
			d.doCheckpoint(env, t, t.Payload.(*reqCtx))
		case sched.ClassRestore:
			d.doRestore(env, t, t.Payload.(*reqCtx))
		case sched.ClassMaintenance:
			d.doMaintenance(env, t)
		}
		d.sched.Done(env, t)
	}
}

// transfer is one scheduled checkpoint or restore while a worker owns
// it: its trace and the datapath binding for one version slot of the
// model.
type transfer struct {
	tr   *telemetry.Trace
	plan datapath.Plan
	cx   *datapath.Context
}

// begin opens the request's trace (enqueue-wait is its first stage) and
// builds the chunk schedule for slot, bound to the client's regions.
func (d *Daemon) begin(env sim.Env, kind string, t *sched.Task, rc *reqCtx, iter uint64, slot int) *transfer {
	tr := telemetry.NewTrace(kind, rc.model.Name, iter, t.EnqueuedAt)
	tr.ID = t.TraceID
	tr.ParentSpan = t.ParentSpan
	tr.Root.Child("enqueue-wait", t.EnqueuedAt).EndAt(env.Now())
	m := rc.model
	tensors := make([]datapath.TensorRange, len(m.Tensors))
	for i, tm := range m.Tensors {
		ext := m.TensorData(i, slot)
		tensors[i] = datapath.TensorRange{Name: tm.Name, PMemOff: ext.Off, Size: ext.Size}
	}
	cx := d.cx
	cx.Remote, cx.Trace = rc.mrs, t.TraceID
	return &transfer{tr: tr, plan: datapath.NewPlan(tensors, d.cfg.ChunkSize), cx: &cx}
}

// finish closes a scheduled request, successful or not: the trace lands
// in the ring (carrying the error, or feeding lat), the lane is
// released, and every waiter is answered. x is nil for a request
// refused before any transfer began.
func (d *Daemon) finish(env sim.Env, t *sched.Task, x *transfer, lat *telemetry.Histogram, reply *wire.Msg) {
	if x != nil {
		x.tr.Finish(env.Now())
		if reply.Type == wire.TError {
			x.tr.Err = reply.Error
		} else {
			lat.ObserveDurationTraced(x.tr.Duration, x.tr.ID)
		}
		d.tel.traces.Add(x.tr)
	}
	// Free the lane before touching the waiter lists: once the task
	// leaves the running set, Dups/Coalesced are stable.
	d.sched.Done(env, t)
	// The original connection may have died mid-transfer; duplicate
	// waiters from the client's reconnect get the same reply, so a
	// committed version is always acknowledged on whichever connection
	// survives.
	d.send(env, t.Payload.(*reqCtx).conn, reply)
	for _, dp := range t.Dups {
		d.send(env, dp.(*reqCtx).conn, reply)
	}
	// Coalesced waiters asked for an older iteration that this newer
	// checkpoint supersedes; each is answered under its own iteration
	// (the CRC stamps the newer commit only).
	for _, st := range t.Coalesced {
		own := *reply
		own.Iteration, own.CRC = st.Iteration, 0
		d.send(env, st.Payload.(*reqCtx).conn, &own)
	}
}

// doCheckpoint pulls the model from GPU memory into the target version
// slot, building the span tree of the request lifecycle as it goes:
// enqueue-wait, the engine's pull/flush stages, and the version-flag
// commit. The engine returns only once every chunk is flushed, so the
// done flag never commits over unpersisted data. A request carrying a
// trusted digest vector runs incrementally: only the dirty extents
// cross the fabric, the clean blocks copy forward from the previous
// version's slot inside PMem (flushed under the same discipline), and
// blocks the target slot already holds are skipped outright. A
// REPLICATE runs here too, pulling from its holder's PMem, and commits
// only a copy that hashes to the holder's stamp.
func (d *Daemon) doCheckpoint(env sim.Env, t *sched.Task, rc *reqCtx) {
	m := rc.model
	slot := m.TargetSlot()
	x := d.begin(env, "checkpoint", t, rc, t.Iteration, slot)
	// The delta decision reads both slots' headers and digest tables, so
	// it must precede commit's SetActive, which destroys the target's.
	table, dp := d.planDelta(env, t, rc, slot, x.tr.Root)
	if dp != nil {
		x.plan = dp.plan
	}
	var res datapath.Result
	crc, err := d.commit(env, version{
		model: m, slot: slot, iter: t.Iteration, digests: table, wantCRC: rc.wantCRC, trace: x.tr,
	}, func() (stamp uint64, err error) {
		cfg, st := d.dp, d.newStamper(rc, slot, dp)
		if st != nil {
			cfg.Flush = st.flush
		}
		eng := datapath.New(cfg)
		if res, err = eng.Pull(env, x.cx, x.plan, x.tr.Root); err == nil && dp != nil {
			err = d.copyForward(env, eng, x.cx, dp, x.tr.Root, &res)
		}
		return st.stamp(), err
	})
	if err != nil {
		code, msg := wire.ErrCodeNone, err.Error()
		if errors.Is(err, errCRCMismatch) {
			code, msg = wire.ErrCodeCorrupt, fmt.Sprintf("%s (holder's stamp %016x, pulled %016x)", msg, rc.wantCRC, crc)
		}
		d.finish(env, t, x, nil, errMsg(rc.req, code, t.Iteration, m.Name, msg))
		return
	}
	if dp != nil {
		d.recordDelta(env, dp, t)
	}
	d.tel.bytesPulled.Add(res.Bytes)
	d.tel.pullStage.ObserveDurationTraced(res.Transfer, x.tr.ID)
	d.tel.flushStage.ObserveDurationTraced(res.Flush, x.tr.ID)
	x.tr.Bytes = res.Bytes
	d.finish(env, t, x, d.tel.ckptLatency,
		&wire.Msg{Type: wire.TCheckpointDone, Model: m.Name, Iteration: t.Iteration, Slot: slot, CRC: crc})
}

// doRestore writes a done version into the client's GPU memory: the
// newest one by default, or — when the request names an iteration — the
// exact slot holding it, which is how a striped group restore pins
// every shard to the manifest's group-committed iteration.
func (d *Daemon) doRestore(env sim.Env, t *sched.Task, rc *reqCtx) {
	m := rc.model
	slot, v, ok := doneSlot(m, t.Iteration)
	if !ok {
		msg := "no complete checkpoint version on PMem"
		if t.Iteration != 0 {
			msg = fmt.Sprintf("iteration %d has no complete version on PMem", t.Iteration)
		}
		d.finish(env, t, nil, nil, errMsg(wire.TRestore, wire.ErrCodeNoCheckpoint, t.Iteration, m.Name, msg))
		return
	}
	x := d.begin(env, "restore", t, rc, v.Iteration, slot)
	done := &wire.Msg{Type: wire.TRestoreDone, Model: m.Name, Iteration: v.Iteration, Slot: slot}
	// Integrity gate: re-fingerprint the stored copy against the stamp
	// persisted with its DONE flag before any byte reaches GPU memory. A
	// mismatch means this copy is torn or corrupted — the client fails
	// over to another replica. A version stored without a stamp (an
	// image from before superblock format 2) has nothing to check and
	// skips the pass.
	if v.CRC != 0 {
		sp := x.tr.Root.Child("verify", env.Now())
		got, err := store.Check(d.cfg.PMem, m, slot, v)
		sp.EndAt(env.Now())
		if err != nil {
			d.tel.crcFailures.Inc()
			d.finish(env, t, x, nil, errMsg(wire.TRestore, wire.ErrCodeCorrupt, v.Iteration, m.Name, err.Error()))
			return
		}
		// The restored bytes are exactly the version the slot's table
		// describes, so a delta client (one that named its block size in
		// the RESTORE) can seed its digest cache from it instead of
		// rehashing what the push writes. Only a table the checked stamp
		// vouches for goes out: on a materialized zone its CRC-32C halves
		// must join to that stamp.
		if tab := m.Digests(slot, 0); tab != nil && tab.BlockBytes == rc.deltaBlock && (!d.cfg.PMem.Materialized() || store.TableJoins(m, tab, got)) {
			done.Digests, done.DeltaBlock = tab.Digests, tab.BlockBytes
		}
	}
	res, err := datapath.New(d.dp).Push(env, x.cx, x.plan, x.tr.Root)
	if err != nil {
		d.finish(env, t, x, nil, errMsg(wire.TRestore, wire.ErrCodeNone, v.Iteration, m.Name, err.Error()))
		return
	}
	d.tel.bytesPushed.Add(res.Bytes)
	d.tel.pushStage.ObserveDurationTraced(res.Transfer, x.tr.ID)
	x.tr.Bytes = res.Bytes
	d.finish(env, t, x, d.tel.restoreLatency, done)
}

// doneSlot finds the slot holding a complete version of m: the newest
// when iter is 0, otherwise exactly iteration iter.
func doneSlot(m *index.Model, iter uint64) (int, index.Version, bool) {
	if iter == 0 {
		return m.LatestDone()
	}
	for s := 0; s < 2; s++ {
		if h := m.VersionHeader(s); h.State == index.StateDone && h.Iteration == iter {
			return s, h, true
		}
	}
	return 0, index.Version{}, false
}

// version names the slot one commit transaction fills and what must
// hold before it may go DONE.
type version struct {
	model *index.Model
	slot  int
	iter  uint64
	// digests, when non-nil, is persisted as the slot's block-digest
	// table so the next checkpoint can delta against this version; on a
	// materialized data zone the content must join to it (see commit).
	digests *delta.Table
	// wantCRC, when nonzero, is the fingerprint the content must hash
	// to (the holder's stamp on a REPLICATE).
	wantCRC uint64
	// trace, when non-nil, receives the "commit" span.
	trace *telemetry.Trace
}

// errCRCMismatch is commit's refusal to mark DONE a copy that does not
// hash to version.wantCRC.
var errCRCMismatch = errors.New("replicated copy failed integrity check")

// commit is the double-mapping protocol of Fig. 6 — the only place a
// version slot changes state, for client checkpoints and REPLICATEs
// alike. The slot is marked ACTIVE (destroying its old header) before
// move writes a byte; move must return only once everything it wrote is
// flushed; and the DONE flag, stamped with the content's fingerprint,
// is persisted last. move returns that fingerprint when its flushes
// computed it (see stamper), or 0 to have commit hash the slot. Before
// DONE the fingerprint must match version.wantCRC, and on a
// materialized data zone the CRC-32C its digest table joins to: a slot
// holding bytes other than the client's, or a table that does not
// describe its slot, would poison every later delta. Any error leaves
// the slot ACTIVE — never restorable — and the other slot's committed
// version untouched. It returns the fingerprint, also alongside
// errCRCMismatch.
func (d *Daemon) commit(env sim.Env, v version, move func() (uint64, error)) (uint64, error) {
	v.model.SetActive(v.slot, v.iter)
	crc, err := move()
	if err != nil {
		return 0, err
	}
	var traceID telemetry.TraceID
	if v.trace != nil {
		traceID = v.trace.ID
		span := v.trace.Root.Child("commit", env.Now())
		defer func() { span.EndAt(env.Now()) }()
	}
	// Persist the content's fingerprint with the DONE flag: every
	// replica of this content computes the same CRC, so a torn or
	// corrupted copy is detectable at restore.
	if crc == 0 {
		crc = store.ContentCRC(d.cfg.PMem, v.model, v.slot)
	}
	if !d.crcMatches(crc, v.wantCRC) {
		return crc, errCRCMismatch
	}
	if t := v.digests; t != nil && d.cfg.PMem.Materialized() && !store.TableJoins(v.model, t, crc) {
		d.tel.crcFailures.Inc()
		return crc, fmt.Errorf("checkpoint does not match the client's digests: %s", store.BadBlocks(d.cfg.PMem, v.model, v.slot, t))
	}
	// The digest table goes down before the DONE flag, so a crash in
	// between leaves a table whose iteration cannot match the slot
	// header (it is distrusted, never wrong). A failed persist only
	// costs the next delta (it falls back to full); this version is
	// already intact on media.
	if v.digests != nil {
		if err := d.eng.Index().DeltaPut(v.model, v.slot, v.digests); err != nil {
			d.event(env, telemetry.Event{
				Kind: telemetry.EvDeltaTableLost, Model: v.model.Name, Iteration: v.iter, Trace: traceID,
				Detail: "digest table persist failed (next delta runs full): " + err.Error(),
			})
		}
	}
	v.model.SetDoneCRC(v.slot, v.iter, time.Unix(0, int64(env.Now())), crc)
	return crc, nil
}

// crcMatches checks a slot's fingerprint got against want, counting a
// mismatch; want 0 (nothing to compare against) always passes.
func (d *Daemon) crcMatches(got, want uint64) bool {
	if want != 0 && got != want {
		d.tel.crcFailures.Inc()
		return false
	}
	return true
}

// stamper computes a materialized checkpoint's stamp without reading
// the slot again. Each flush persists its range and hashes the same
// bytes in one pass (Config.Flush), and each block a delta skips brings
// the CRC-32C half of its trusted digest; stamp joins the pieces in
// store.ContentCRC's order by CRC-32C algebra (memdev.Combine), so they may
// arrive in any order — a delta's skipped blocks and copy-forward spans
// land out of slot order. Only a successful flush adds its piece, so a
// torn flush that is retried counts once. The engine calls flush from one process at a time.
type stamper struct {
	persist func(off, n int64, crc *uint32) error
	m       *index.Model
	slot    int
	pieces  []memdev.Piece
	crc     uint32 // the running flush's CRC; a field, so &crc allocates nothing
}

// newStamper returns the stamper for a checkpoint of rc's model into
// slot, holding a delta plan's skipped extents already, or nil on a
// virtual data zone, whose stamp hashes fingerprints.
func (d *Daemon) newStamper(rc *reqCtx, slot int, dp *deltaPlan) *stamper {
	if !d.cfg.PMem.Materialized() {
		return nil
	}
	s := &stamper{persist: d.cfg.Flush, m: rc.model, slot: slot}
	if dp == nil {
		return s
	}
	for _, x := range dp.skip {
		s.pieces = append(s.pieces, memdev.Piece{Off: rc.model.TensorData(x.Tensor, slot).Off + x.TensorOff, N: x.Size,
			CRC: delta.CRC32C([]int64{x.Size}, rc.deltaBlock, rc.digests[x.Block:])})
	}
	return s
}

// flush is the checkpoint engine's flush of [off, off+n).
func (s *stamper) flush(off, n int64) error {
	s.crc = 0
	err := s.persist(off, n, &s.crc)
	if err == nil && n > 0 {
		s.pieces = append(s.pieces, memdev.Piece{Off: off, N: n, CRC: s.crc})
	}
	return err
}

// stamp is the version's fingerprint, as store.ContentCRC computes it, when
// the pieces tile the slot's tensor extents exactly; otherwise (a gap
// or an overlap) 0.
func (s *stamper) stamp() uint64 {
	if s == nil {
		return 0
	}
	crc, ok := memdev.Join(s.pieces, len(s.m.Tensors), func(i int) (int64, int64) {
		ext := s.m.TensorData(i, s.slot)
		return ext.Off, ext.Size
	})
	if !ok {
		return 0
	}
	return store.StampOf(crc)
}

func flushCost(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / float64(perfmodel.MiB) * float64(perfmodel.FlushPerMiB))
}

// deltaPlan is a prepared incremental checkpoint: the dirty extents to
// pull over the fabric, the clean spans to copy forward locally in
// PMem, and the byte accounting behind the decision.
type deltaPlan struct {
	plan                         datapath.Plan
	spans                        []datapath.CopySpan
	skip                         []delta.Extent
	pull, copied, skipped, total int64
}

// planDelta reads a checkpoint's digest vector into the table to
// persist with its version — full checkpoints too: that is what
// bootstraps the first delta — and decides whether the checkpoint can
// run incrementally. The table is nil when delta is off, the client
// sent no digests, or the vector is malformed: never persist a table
// the differ would mistrust. A nil plan means run a full checkpoint;
// every nil plan on a request that asked for delta is flight-recorded
// (and so counted) as a fallback. It must run BEFORE SetActive: the
// decision reads both slots' version headers and persisted digest
// tables, and SetActive destroys the target slot's header. A request
// carrying digests gets a "plan" span under root, whose attributes are
// the plan's pull/copy/skip bytes, or why it runs full.
func (d *Daemon) planDelta(env sim.Env, t *sched.Task, rc *reqCtx, slot int, root *telemetry.Span) (*delta.Table, *deltaPlan) {
	if rc.deltaBlock <= 0 || len(rc.digests) == 0 {
		return nil, nil // pre-delta client: full checkpoint is the contract, not a fallback
	}
	sp := root.Child("plan", env.Now())
	defer func() { sp.EndAt(env.Now()) }()
	var table *delta.Table // once the vector is known to be well-formed
	fallback := func(reason string) (*delta.Table, *deltaPlan) {
		sp.SetAttr("fallback", reason)
		d.event(env, telemetry.Event{
			Kind: telemetry.EvDeltaFallback, Model: t.Model, Iteration: t.Iteration, Trace: t.TraceID, Detail: reason,
		})
		return table, nil
	}
	if !d.cfg.DeltaEnabled {
		return fallback("delta disabled on this daemon")
	}
	m, block := rc.model, rc.deltaBlock
	sizes, total := m.Sizes(), m.TotalSize()
	if count := delta.BlockCount(sizes, block); len(rc.digests) != count {
		return fallback(fmt.Sprintf("digest vector has %d blocks, layout needs %d", len(rc.digests), count))
	}
	table = &delta.Table{BlockBytes: block, Iteration: t.Iteration, Layout: delta.LayoutHash(sizes, block), Digests: rc.digests}
	if want := d.cfg.DeltaBlockBytes; want > 0 && block != want {
		return fallback(fmt.Sprintf("client block %d bytes, daemon pinned to %d", block, want))
	}
	prevSlot, _, ok := m.LatestDone()
	if !ok {
		// First version of this model: nothing could ever delta against
		// it, so the full pull is the contract rather than a fallback.
		sp.SetAttr("full", "first version")
		return table, nil
	}
	if prevSlot == slot {
		return fallback("previous complete version occupies the target slot")
	}
	active := m.Digests(prevSlot, block)
	if active == nil {
		return fallback("previous version has no trusted digest table")
	}
	// The target slot's table is only a skip oracle: when it is stale or
	// missing, every clean block copies forward instead of skipping —
	// correct either way, just slower.
	var target []uint64
	if tt := m.Digests(slot, block); tt != nil {
		target = tt.Digests
	}
	diff := delta.ThreeWay(sizes, block, rc.digests, active.Digests, target)
	// The plan is judged by what crosses the fabric: a clean block copies
	// forward inside PMem, which is cheaper than pulling it, so only a
	// plan that would pull every byte is a full pull under another name.
	if diff.PullBytes >= total {
		return fallback(fmt.Sprintf("delta would pull all %d bytes", total))
	}
	dp := &deltaPlan{skip: diff.Skip, pull: diff.PullBytes, copied: diff.CopyBytes, skipped: diff.SkipBytes, total: total}
	sp.SetAttr("pull", strconv.FormatInt(dp.pull, 10))
	sp.SetAttr("copy", strconv.FormatInt(dp.copied, 10))
	sp.SetAttr("skip", strconv.FormatInt(dp.skipped, 10))
	var extents []datapath.Extent
	for _, x := range diff.Pull {
		ext := m.TensorData(x.Tensor, slot)
		extents = append(extents, datapath.Extent{
			Tensor: x.Tensor, Name: m.Tensors[x.Tensor].Name,
			TensorOff: x.TensorOff, PMemOff: ext.Off + x.TensorOff, Size: x.Size,
		})
	}
	dp.plan = datapath.NewDeltaPlan(extents, d.cfg.ChunkSize)
	for _, x := range diff.Copy {
		dst := m.TensorData(x.Tensor, slot)
		src := m.TensorData(x.Tensor, prevSlot)
		dp.spans = append(dp.spans, datapath.CopySpan{
			Name:   m.Tensors[x.Tensor].Name,
			DstOff: dst.Off + x.TensorOff, SrcOff: src.Off + x.TensorOff, Size: x.Size,
		})
	}
	return table, dp
}

// recordDelta publishes an accepted delta plan's byte accounting once
// its version has committed.
func (d *Daemon) recordDelta(env sim.Env, dp *deltaPlan, t *sched.Task) {
	d.tel.deltaDirty.Store(math.Float64bits(float64(dp.pull) / float64(dp.total)))
	d.tel.deltaSaved.Add(dp.total - dp.pull)
	d.event(env, telemetry.Event{
		Kind: telemetry.EvDeltaPlan, Model: t.Model, Iteration: t.Iteration, Trace: t.TraceID,
		Detail: fmt.Sprintf("pull %d copy %d skip %d of %d bytes", dp.pull, dp.copied, dp.skipped, dp.total),
	})
}

// copyForward runs the local half of an incremental checkpoint on eng —
// the checkpoint's own, so a stamper hashes each span in its flush —
// and folds its timing into the pull result (the copy is
// flush-dominated PMem work, so it lands in the flush stage of the
// Figure 13 breakdown).
func (d *Daemon) copyForward(env sim.Env, eng *datapath.Engine, cx *datapath.Context, dp *deltaPlan, root *telemetry.Span, res *datapath.Result) error {
	data := d.cfg.PMem.Data()
	cres, err := eng.CopyForward(env, cx, dp.spans, func(dst, src, n int64) error {
		memdev.Copy(data, dst, data, src, n)
		return nil
	}, root)
	if err != nil {
		return err
	}
	res.Flush += cres.Transfer
	return nil
}

// repackPass tracks one online repack pass across its per-model
// maintenance tasks. done fires when every model's step finished and
// the engine's FinishPass ran. Daemon.repackMu guards the mutable
// fields (remaining, moved, err, report).
type repackPass struct {
	remaining int
	models    int
	moved     int64
	err       error
	report    store.PassReport

	started time.Duration
	trace   telemetry.TraceID
	done    *sim.Signal
}

// runRepack starts an online repack pass — or joins the active one —
// and, when wait is true, blocks until it completes. One maintenance
// task per stored model is submitted to the scheduler's maintenance
// class: each task leases its model's lane (quiescing that model's
// traffic while queued checkpoints/restores keep strict priority), and
// the last one to finish trims the bump pointer and compacts the
// ModelTable.
func (d *Daemon) runRepack(env sim.Env, wait bool) *repackPass {
	d.repackMu.Lock()
	if p := d.pass; p != nil {
		d.repackMu.Unlock()
		if wait {
			p.done.Wait(env)
		}
		return p
	}
	names := d.ModelNames()
	p := &repackPass{
		remaining: len(names),
		models:    len(names),
		started:   env.Now(),
		trace:     telemetry.NewTraceID(),
		done:      sim.NewSignal(env),
	}
	d.pass = p
	d.repackMu.Unlock()
	if len(names) == 0 {
		d.finishPass(env, p)
	}
	for _, name := range names {
		res := d.sched.Submit(env, &sched.Task{
			Model:      name,
			Class:      sched.ClassMaintenance,
			EnqueuedAt: env.Now(),
			TraceID:    p.trace,
			Payload:    p,
		})
		if res.Verdict == sched.Rejected {
			// Only a closed scheduler rejects maintenance; count the
			// model as done so the pass still completes.
			d.passStep(env, p, 0, nil)
		}
		// Deduped cannot happen: one task per model per pass, and passes
		// never overlap.
	}
	if wait {
		p.done.Wait(env)
	}
	return p
}

// passStep records one model's maintenance step; the last step closes
// the pass.
func (d *Daemon) passStep(env sim.Env, p *repackPass, moved int64, err error) {
	d.repackMu.Lock()
	p.moved += moved
	if err != nil && p.err == nil {
		p.err = err
	}
	p.remaining--
	last := p.remaining == 0
	d.repackMu.Unlock()
	if last {
		d.finishPass(env, p)
	}
}

// finishPass runs the engine's end-of-pass step (bump-pointer trim +
// live ModelTable compaction), records the report, and releases
// everyone waiting on the pass.
func (d *Daemon) finishPass(env sim.Env, p *repackPass) {
	// Every step is in, so moved is stable without the lock.
	rep, err := d.eng.FinishPass(p.models, p.moved, env.Now()-p.started, p.trace)
	d.repackMu.Lock()
	if err != nil && p.err == nil {
		p.err = err
	}
	p.report = rep
	detail := rep.String()
	if p.err != nil {
		detail = "pass error: " + p.err.Error()
	}
	d.pass = nil
	d.repackMu.Unlock()
	d.event(env, telemetry.Event{Kind: telemetry.EvStoreRepack, Trace: p.trace, Detail: detail})
	p.done.Fire(env)
}

// doMaintenance executes one model's slice of an online repack pass;
// the task's payload is the pass it belongs to. Holding the lane's
// running slot IS the quiesce lease: no checkpoint or restore for this
// model can dispatch until sched.Done.
func (d *Daemon) doMaintenance(env sim.Env, t *sched.Task) {
	// Compact through the ModelMap's live handle so the repoint lands in
	// the in-memory PAddr cache the checkpoint and restore paths read. A
	// model deleted while this task waited has nothing to move.
	var moved int64
	var err error
	if m, _ := d.find(t.Model); m != nil {
		moved, err = d.eng.CompactModel(m)
	}
	if moved > 0 {
		// Model the copy + flush time of the relocated bytes while the
		// lease is still held.
		sim.Charge(env, flushCost(moved))
	}
	d.sched.Done(env, t)
	// If the model was deleted while this task waited or ran, drop its
	// lane.
	if m, _ := d.find(t.Model); m == nil {
		d.sched.Forget(t.Model)
	}
	d.passStep(env, t.Payload.(*repackPass), moved, err)
}

// handleRepack runs one online repack pass to completion and answers
// with its JSON report — portusctl repack -addr.
func (d *Daemon) handleRepack(env sim.Env, conn wire.Conn) {
	// The pass has fired done, so its report and error are final.
	p := d.runRepack(env, true)
	rep, err := p.report, p.err
	var payload []byte
	if err == nil {
		payload, err = json.Marshal(rep)
	}
	if err != nil {
		d.sendErrFor(env, conn, wire.TRepack, 0, "", err.Error())
		return
	}
	d.send(env, conn, &wire.Msg{Type: wire.TRepackResp, InReplyTo: wire.TRepack, Payload: payload})
}
