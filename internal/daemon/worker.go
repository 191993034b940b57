package daemon

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
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
	// A DO_CHECKPOINT retried after a reconnect (the original DONE was
	// lost with the connection) is keyed by (model, iteration): if that
	// iteration already committed, ack it from the index instead of
	// double-executing. (Iteration 0 names no version — doneSlot reads
	// it as "the newest" — so it is never deduplicated this way.)
	if class == sched.ClassCheckpoint && m.Iteration != 0 {
		if _, v, ok := doneSlot(model, m.Iteration); ok {
			d.tel.dedups.Inc()
			d.send(env, conn, &wire.Msg{Type: wire.TCheckpointDone, Model: m.Model, Iteration: m.Iteration, CRC: v.CRC})
			return
		}
	}
	res := d.sched.Submit(env, &sched.Task{
		Model:      m.Model,
		Class:      class,
		Iteration:  m.Iteration,
		EnqueuedAt: env.Now(),
		TraceID:    telemetry.TraceID(m.TraceID),
		ParentSpan: m.SpanID,
		Payload:    &reqCtx{model: model, mrs: mrs, conn: conn, digests: m.Digests, deltaBlock: m.DeltaBlock},
	})
	switch res.Verdict {
	case sched.Deduped:
		// The identical request is queued or in flight; this connection
		// is parked on it and answered when it completes.
		d.tel.dedups.Inc()
	case sched.Rejected:
		// Backpressure, not an error: the client re-sends after the
		// hinted delay.
		d.send(env, conn, &wire.Msg{
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
	wait *telemetry.Span
	plan datapath.Plan
	cx   *datapath.Context
}

// begin opens the request's trace (enqueue-wait is its first stage) and
// builds the chunk schedule for slot, bound to the client's regions.
func (d *Daemon) begin(env sim.Env, kind string, t *sched.Task, rc *reqCtx, iter uint64, slot int) *transfer {
	tr := telemetry.NewTrace(kind, rc.model.Name, iter, t.EnqueuedAt)
	tr.ID = t.TraceID
	tr.ParentSpan = t.ParentSpan
	wait := tr.Root.Child("enqueue-wait", t.EnqueuedAt)
	wait.EndAt(env.Now())
	m := rc.model
	tensors := make([]datapath.TensorRange, len(m.Tensors))
	for i, tm := range m.Tensors {
		ext := m.TensorData(i, slot)
		tensors[i] = datapath.TensorRange{Name: tm.Name, PMemOff: ext.Off, Size: ext.Size}
	}
	cx := d.cx
	cx.Remote, cx.Trace = rc.mrs, t.TraceID
	return &transfer{tr: tr, wait: wait, plan: datapath.NewPlan(tensors, d.cfg.ChunkSize), cx: &cx}
}

// finish closes a scheduled request, successful or not: the trace lands
// in the ring (carrying the error, or feeding lat and the enqueue-wait
// histogram), the lane is released, and every waiter is answered. x is
// nil for a request refused before any transfer began.
func (d *Daemon) finish(env sim.Env, t *sched.Task, x *transfer, lat *telemetry.Histogram, reply *wire.Msg) {
	if x != nil {
		x.tr.Finish(env.Now())
		if reply.Type == wire.TError {
			x.tr.Err = reply.Error
		} else {
			lat.ObserveDurationTraced(x.tr.Duration, x.tr.ID)
			d.tel.enqueueWait.ObserveDurationTraced(x.wait.Dur(), x.tr.ID)
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
// done flag never commits over unpersisted data regardless of pipeline
// depth. A request carrying a trusted digest vector runs incrementally:
// only the dirty extents cross the fabric, the clean blocks copy
// forward from the previous version's slot inside PMem (flushed under
// the same discipline), and blocks the target slot already holds are
// skipped outright.
func (d *Daemon) doCheckpoint(env sim.Env, t *sched.Task, rc *reqCtx) {
	m := rc.model
	slot := m.TargetSlot()
	// The delta decision reads both slots' headers and digest tables, so
	// it must precede commit's SetActive, which destroys the target's.
	dp := d.planDelta(env, t, rc, slot)
	x := d.begin(env, "checkpoint", t, rc, t.Iteration, slot)
	if dp != nil {
		x.plan = dp.plan
	}
	var res datapath.Result
	crc, err := d.commit(env, version{
		model: m, slot: slot, iter: t.Iteration, digests: d.digestTable(rc, t.Iteration), trace: x.tr,
	}, func() (err error) {
		if res, err = d.engine.Pull(env, x.cx, x.plan, x.tr.Root); err == nil && dp != nil {
			err = d.copyForward(env, x.cx, dp, x.tr.Root, &res)
		}
		return err
	})
	if err != nil {
		d.finish(env, t, x, nil, errMsg(wire.TDoCheckpoint, wire.ErrCodeNone, t.Iteration, m.Name, err.Error()))
		return
	}
	if dp != nil {
		d.recordDelta(env, dp, t)
	}
	d.tel.pullNanos.Add(int64(res.Transfer))
	d.tel.flushNanos.Add(int64(res.Flush))
	d.tel.checkpoints.Inc()
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
	// Integrity gate: re-fingerprint the stored copy against the stamp
	// persisted with its DONE flag before any byte reaches GPU memory. A
	// mismatch means this copy is torn or corrupted — the client fails
	// over to another replica. A version stored without a stamp (an
	// image from before superblock format 2) has nothing to check and
	// skips the pass.
	if v.CRC != 0 {
		if got, ok := d.verifyCRC(m, slot, v.CRC); !ok {
			d.finish(env, t, nil, nil, errMsg(wire.TRestore, wire.ErrCodeCorrupt, v.Iteration, m.Name,
				fmt.Sprintf("iteration %d failed integrity check (stored CRC %016x, computed %016x)", v.Iteration, v.CRC, got)))
			return
		}
	}
	x := d.begin(env, "restore", t, rc, v.Iteration, slot)
	res, err := d.engine.Push(env, x.cx, x.plan, x.tr.Root)
	if err != nil {
		d.finish(env, t, x, nil, errMsg(wire.TRestore, wire.ErrCodeNone, v.Iteration, m.Name, err.Error()))
		return
	}
	d.tel.pushNanos.Add(int64(res.Transfer))
	d.tel.restores.Inc()
	d.tel.bytesPushed.Add(res.Bytes)
	d.tel.pushStage.ObserveDurationTraced(res.Transfer, x.tr.ID)
	x.tr.Bytes = res.Bytes
	d.finish(env, t, x, d.tel.restoreLatency,
		&wire.Msg{Type: wire.TRestoreDone, Model: m.Name, Iteration: v.Iteration, Slot: slot})
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
	// table so the next checkpoint can delta against this version.
	digests *delta.Table
	// wantCRC, when nonzero, is the fingerprint the installed content
	// must hash to (the source replica's stamp on an anti-entropy LOAD).
	wantCRC uint64
	// trace, when non-nil, receives the "commit" span.
	trace *telemetry.Trace
}

// errCRCMismatch is commit's refusal to mark DONE a copy that does not
// hash to version.wantCRC.
var errCRCMismatch = errors.New("installed copy failed integrity check")

// commit is the double-mapping protocol of Fig. 6 — the only place a
// version slot changes state, shared by checkpoints and anti-entropy
// LOADs. The slot is marked ACTIVE (destroying its old header) before
// move writes a byte; move must return only once everything it wrote is
// flushed; and the DONE flag, stamped with the content's fingerprint,
// is persisted last. Any error leaves the slot ACTIVE — never
// restorable — and the other slot's committed version untouched. It
// returns the fingerprint it computed, also alongside errCRCMismatch.
func (d *Daemon) commit(env sim.Env, v version, move func() error) (uint64, error) {
	v.model.SetActive(v.slot, v.iter)
	if err := move(); err != nil {
		return 0, err
	}
	var traceID telemetry.TraceID
	if v.trace != nil {
		traceID = v.trace.ID
		span := v.trace.Root.Child("commit", env.Now())
		defer func() { span.EndAt(env.Now()) }()
	}
	// The digest table goes down before the DONE flag, so a crash in
	// between leaves a table whose iteration cannot match the slot
	// header (it is distrusted, never wrong). A failed persist only
	// costs the next delta (it falls back to full); this version is
	// already intact on media.
	if v.digests != nil {
		if err := d.eng.Index().DeltaPut(v.model, v.slot, v.digests); err != nil {
			d.event(env, telemetry.Event{
				Kind: telemetry.EvDeltaFallback, Model: v.model.Name, Iteration: v.iter, Trace: traceID,
				Detail: "digest table persist failed (next delta runs full): " + err.Error(),
			})
		}
	}
	// Fingerprint the slot's freshly-flushed content and persist the
	// stamp with the DONE flag: every replica of this content computes
	// the same CRC, so a torn or corrupted copy is detectable at restore.
	crc, ok := d.verifyCRC(v.model, v.slot, v.wantCRC)
	if !ok {
		return crc, errCRCMismatch
	}
	v.model.SetDoneCRC(v.slot, v.iter, time.Unix(0, int64(env.Now())), crc)
	return crc, nil
}

// verifyCRC fingerprints a slot and checks it against want, counting a
// mismatch; want 0 (nothing to compare against) always passes.
func (d *Daemon) verifyCRC(m *index.Model, slot int, want uint64) (got uint64, ok bool) {
	if got = d.contentCRC(m, slot); want != 0 && got != want {
		d.tel.crcFailures.Inc()
		return got, false
	}
	return got, true
}

// contentCRC stamps one version slot's tensor extents: CRC-32C (the
// checksum iSCSI, ext4 and RocksDB use for this job, one SSE4.2
// instruction per 8 bytes) of the actual PMem bytes, hashed in place, in
// materialized mode, or of the extents' content fingerprints in virtual
// mode (Fingerprint, not StampOf: a delta-written slot holds pulled and
// copied-forward fragments side by side, which StampOf cannot
// summarize). Bit 32 is always set, so a stamp can never read as 0, the
// header's "stored without a stamp". Replicas that assembled the same
// content compute the same value, so the stamp identifies the copy's
// content, not its location or how it got there.
func (d *Daemon) contentCRC(m *index.Model, slot int) uint64 {
	h := crc32.New(castagnoli)
	data := d.cfg.PMem.Data()
	var b [8]byte
	for i := range m.Tensors {
		ext := m.TensorData(i, slot)
		if data.Materialized() {
			data.HashTo(h, ext.Off, ext.Size)
		} else {
			binary.LittleEndian.PutUint64(b[:], data.Fingerprint(ext.Off, ext.Size))
			h.Write(b[:])
		}
	}
	return 1<<32 | uint64(h.Sum32())
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func flushCost(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / float64(perfmodel.MiB) * float64(perfmodel.FlushPerMiB))
}

// deltaPlan is a prepared incremental checkpoint: the dirty extents to
// pull over the fabric, the clean spans to copy forward locally in
// PMem, and the byte accounting behind the decision.
type deltaPlan struct {
	plan                         datapath.Plan
	spans                        []datapath.CopySpan
	pull, copied, skipped, total int64
}

// tensorSizes collects a model's tensor sizes (the delta layout).
func tensorSizes(m *index.Model) []int64 {
	sizes := make([]int64, len(m.Tensors))
	for i, tm := range m.Tensors {
		sizes[i] = tm.Size
	}
	return sizes
}

// planDelta decides whether a checkpoint can run incrementally. It must
// run BEFORE SetActive: the decision reads both slots' version headers
// and persisted digest tables, and SetActive destroys the target
// slot's header. A nil return means run a full checkpoint; every nil
// on a request that asked for delta is counted and flight-recorded as
// a fallback.
func (d *Daemon) planDelta(env sim.Env, t *sched.Task, rc *reqCtx, slot int) *deltaPlan {
	if rc.deltaBlock <= 0 || len(rc.digests) == 0 {
		return nil // pre-delta client: full checkpoint is the contract, not a fallback
	}
	fallback := func(reason string) *deltaPlan {
		d.tel.deltaFallbacks.Inc()
		d.event(env, telemetry.Event{
			Kind: telemetry.EvDeltaFallback, Model: t.Model, Iteration: t.Iteration, Trace: t.TraceID, Detail: reason,
		})
		return nil
	}
	if !d.cfg.DeltaEnabled {
		return fallback("delta disabled on this daemon")
	}
	block := rc.deltaBlock
	if want := d.cfg.DeltaBlockBytes; want > 0 && block != want {
		return fallback(fmt.Sprintf("client block %d bytes, daemon pinned to %d", block, want))
	}
	m := rc.model
	sizes, total := tensorSizes(m), m.TotalSize()
	layout := delta.LayoutHash(sizes, block)
	count := delta.BlockCount(sizes, block)
	if len(rc.digests) != count {
		return fallback(fmt.Sprintf("digest vector has %d blocks, layout needs %d", len(rc.digests), count))
	}
	idx := d.eng.Index()
	prevSlot, prevHdr, ok := m.LatestDone()
	if !ok {
		// First version of this model: nothing could ever delta against
		// it, so the full pull is the contract rather than a fallback.
		return nil
	}
	if prevSlot == slot {
		return fallback("previous complete version occupies the target slot")
	}
	active, ok := idx.DeltaGet(m, prevSlot)
	if !ok || active.Iteration != prevHdr.Iteration || !active.Matches(block, layout, count) {
		return fallback("previous version has no trusted digest table")
	}
	// The target slot's table is only a skip oracle: when it is stale or
	// missing, every clean block copies forward instead of skipping —
	// correct either way, just slower.
	var target []uint64
	if h := m.VersionHeader(slot); h.State == index.StateDone {
		if tt, ok := idx.DeltaGet(m, slot); ok && tt.Iteration == h.Iteration && tt.Matches(block, layout, count) {
			target = tt.Digests
		}
	}
	diff := delta.ThreeWay(sizes, block, rc.digests, active.Digests, target)
	if diff.PullBytes+diff.CopyBytes >= total {
		return fallback(fmt.Sprintf("delta would move %d of %d bytes; full pull is cheaper",
			diff.PullBytes+diff.CopyBytes, total))
	}
	dp := &deltaPlan{pull: diff.PullBytes, copied: diff.CopyBytes, skipped: diff.SkipBytes, total: total}
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
	return dp
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

// copyForward runs the local half of an incremental checkpoint and
// folds its timing into the pull result (the copy is flush-dominated
// PMem work, so it lands in the flush stage of the Figure 13
// breakdown).
func (d *Daemon) copyForward(env sim.Env, cx *datapath.Context, dp *deltaPlan, root *telemetry.Span, res *datapath.Result) error {
	data := d.cfg.PMem.Data()
	cres, err := d.engine.CopyForward(env, cx, dp.spans, func(dst, src, n int64) error {
		memdev.Copy(data, dst, data, src, n)
		return nil
	}, root)
	if err != nil {
		return err
	}
	res.Flush += cres.Transfer
	return nil
}

// digestTable builds the table a checkpoint persists with its version
// from the client's digest vector — full checkpoints too: that is what
// bootstraps the first delta. Nil when delta is off, the client sent no
// digests, or the vector is malformed: never persist a table the differ
// would mistrust.
func (d *Daemon) digestTable(rc *reqCtx, iter uint64) *delta.Table {
	if !d.cfg.DeltaEnabled || rc.deltaBlock <= 0 || len(rc.digests) == 0 {
		return nil
	}
	sizes := tensorSizes(rc.model)
	if len(rc.digests) != delta.BlockCount(sizes, rc.deltaBlock) {
		return nil
	}
	return &delta.Table{
		BlockBytes: rc.deltaBlock,
		Iteration:  iter,
		Layout:     delta.LayoutHash(sizes, rc.deltaBlock),
		Digests:    rc.digests,
	}
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
		env.Sleep(flushCost(moved))
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
