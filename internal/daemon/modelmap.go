package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sched"
	"github.com/portus-sys/portus/internal/serialize"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/store"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// tenant is one stored model's ModelMap entry. model is the single live
// handle onto its persistent MIndex: every request path — checkpoint,
// restore, LIST, DUMP, DESCRIBE, delete, repack — reads and repoints extents
// through this one in-memory PAddr cache, so none can go stale. mrs are
// the attached client's GPU memory regions, keyed one-to-one to the
// model's tensors; nil until a client registers (after a daemon restart
// or a REPLICATE the model is stored but nobody is attached).
type tenant struct {
	model *index.Model
	mrs   []rdma.RemoteMR
}

// reqCtx is the daemon-side payload of a scheduled task: the model and
// client regions the request runs against (as attached when it was
// submitted) and the connection its reply goes to. Duplicate and
// coalesced submissions each carry their own reqCtx, so every surviving
// connection gets its acknowledgment.
type reqCtx struct {
	req   wire.Type // DO_CHECKPOINT, RESTORE or REPLICATE
	model *index.Model
	mrs   []rdma.RemoteMR
	conn  wire.Conn
	// digests/deltaBlock carry a delta client's block-digest vector from
	// DO_CHECKPOINT, or a holder's table from REPLICATE, to the worker;
	// empty means full checkpoint. On RESTORE, deltaBlock is the block
	// size of the table RESTORE_DONE may carry back.
	digests    []uint64
	deltaBlock int64
	// wantCRC is a REPLICATE's holder stamp, which the copy must match
	// to commit; mrs are then the holder's PMem.
	wantCRC uint64
}

func errNoModel(name string) error { return fmt.Errorf("%w: %s", index.ErrNoModel, name) }

// find returns a stored model's live handle and its attached client's
// regions (nil while nobody is attached); a nil handle means the daemon
// stores no such model.
func (d *Daemon) find(name string) (*index.Model, []rdma.RemoteMR) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if tn := d.tenants[name]; tn != nil {
		return tn.model, tn.mrs
	}
	return nil, nil
}

// stored snapshots the ModelMap's live handles in name order.
func (d *Daemon) stored() []*index.Model {
	d.mu.Lock()
	models := make([]*index.Model, 0, len(d.tenants))
	for _, tn := range d.tenants {
		models = append(models, tn.model)
	}
	d.mu.Unlock()
	sort.Slice(models, func(i, j int) bool { return models[i].Name < models[j].Name })
	return models
}

// ModelNames returns the ModelMap keys in order.
func (d *Daemon) ModelNames() []string {
	models := d.stored()
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	return names
}

// peerAdder is implemented by fabrics that need explicit peer-address
// exchange (the TCP soft-RDMA fabric).
type peerAdder interface {
	AddPeer(name, addr string)
}

// handleRegister builds (or re-attaches) the persistent structure for a
// model and records the client's memory regions.
func (d *Daemon) handleRegister(env sim.Env, conn wire.Conn, m *wire.Msg) {
	if len(m.Tensors) == 0 {
		d.sendErrFor(env, conn, wire.TRegister, 0, m.Model, "registration packet has no tensors")
		return
	}
	if !d.owns(env, conn, wire.TRegister, 0, m.Model) {
		return
	}
	metas, mrs := d.regions(m)
	sim.Charge(env, time.Duration(len(m.Tensors))*perfmodel.IndexInsertCost)

	_, err := d.admit(m.Model, metas, mrs)
	if err != nil && store.IsSpaceError(err) {
		// Reclaim-then-retry: run (or join) an online repack pass, then
		// try the admission once more before surfacing anything.
		d.event(env, telemetry.Event{
			Kind: telemetry.EvStoreReclaim, Model: m.Model,
			Detail: fmt.Sprintf("registration hit %v; reclaiming", err),
		})
		d.runRepack(env, true)
		_, err = d.admit(m.Model, metas, mrs)
	}
	switch {
	case err == nil:
		d.tel.registered.Inc()
		d.send(env, conn, &wire.Msg{Type: wire.TRegisterOK, Model: m.Model})
	case store.IsSpaceError(err):
		// Still exhausted after reclaiming: transient backpressure, not a
		// hard failure (so not counted as an error). Space comes back as
		// tenants delete, so the client backs off and re-registers,
		// mirroring BUSY.
		d.tel.nospaceReplies.Inc()
		d.event(env, telemetry.Event{
			Kind: telemetry.EvStoreReclaim, Model: m.Model,
			Detail: "still exhausted after reclaim; NO_SPACE retry-after",
		})
		_ = conn.Send(env, &wire.Msg{
			Type: wire.TError, InReplyTo: wire.TRegister, Code: wire.ErrCodeNoSpace,
			Model: m.Model, Error: err.Error(), RetryAfter: 2 * time.Millisecond,
		})
	default:
		d.sendErrFor(env, conn, wire.TRegister, 0, m.Model, err.Error())
	}
}

// regions reads a REGISTER's or REPLICATE's tensors: their metadata,
// and the regions on the sending node (a client's GPU, or a holder's
// data zone) a transfer reaches them through, whose fabric address it
// learns.
func (d *Daemon) regions(m *wire.Msg) ([]index.TensorMeta, []rdma.RemoteMR) {
	if m.FabricAddr != "" {
		if pa, ok := d.cfg.Fabric.(peerAdder); ok {
			pa.AddPeer(m.ClientNode, m.FabricAddr)
		}
	}
	metas := make([]index.TensorMeta, len(m.Tensors))
	mrs := make([]rdma.RemoteMR, len(m.Tensors))
	for i, t := range m.Tensors {
		metas[i] = index.TensorMeta{Name: t.Name, DType: index.DType(t.DType), Dims: t.Dims, Size: t.Size}
		mrs[i] = rdma.RemoteMR{Node: m.ClientNode, RKey: t.RKey, Len: t.Size, Off: t.Off}
	}
	return metas, mrs
}

// owns checks the placement table assigns model to this daemon,
// refusing the request otherwise. A misrouted request means the client
// holds a stale table; naming the replica set and epoch steers it to
// re-fetch routing, and keeps each model's data on exactly its owner
// daemons.
func (d *Daemon) owns(env sim.Env, conn wire.Conn, inReplyTo wire.Type, iter uint64, model string) bool {
	owners := d.cfg.Group.Owners(model, d.cfg.Replicas)
	if slices.Contains(owners, d.cfg.NodeName) {
		return true
	}
	d.send(env, conn, errMsg(inReplyTo, wire.ErrCodeMisplaced, iter, model,
		fmt.Sprintf("model %q is placed on %v (placement epoch %d), not %q", model, owners, d.cfg.Group.Epoch(), d.cfg.NodeName)))
	return false
}

// errStructMismatch distinguishes a re-registration whose tensors don't
// match the stored model from space errors on the admission path.
var errStructMismatch = errors.New("registration does not match stored model structure")

// admit is the transactional admission step shared by REGISTER and
// REPLICATE: create the model (all-or-nothing through the engine) or
// re-attach to the stored structure, restoring any version slot the
// offline repacker reclaimed. A non-nil mrs attaches the client.
func (d *Daemon) admit(name string, metas []index.TensorMeta, mrs []rdma.RemoteMR) (*index.Model, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tn := d.tenants[name]
	if tn == nil {
		// Fresh model: create ModelTable entry, MIndex, TensorData x2.
		model, err := d.eng.CreateModel(name, metas)
		if err != nil {
			return nil, err
		}
		tn = &tenant{model: model}
		d.tenants[name] = tn
	} else {
		if !metasMatch(tn.model.Tensors, metas) {
			// Re-registration after a client restart must describe the
			// same structure, or the persistent index cannot serve it.
			return nil, errStructMismatch
		}
		// A repacked model keeps only its newest version; restore the
		// double mapping before training resumes.
		if err := d.eng.EnsureSlots(tn.model); err != nil {
			return nil, err
		}
	}
	if mrs != nil {
		tn.mrs = mrs
	}
	return tn.model, nil
}

func metasMatch(a, b []index.TensorMeta) bool {
	return slices.EqualFunc(a, b, func(x, y index.TensorMeta) bool {
		return x.Name == y.Name && x.Size == y.Size && x.DType == y.DType
	})
}

// handleList reports all stored models, stamped with this node's
// identity and each model's placement owner so portusctl (and the
// client router's manifest rebuild) can see shard ownership.
func (d *Daemon) handleList(env sim.Env, conn wire.Conn) {
	models := d.stored()
	d.event(env, telemetry.Event{Kind: telemetry.EvAdminList, Detail: fmt.Sprintf("%d models", len(models))})
	resp := &wire.Msg{Type: wire.TListResp}
	for _, m := range models {
		h0, h1 := m.VersionHeader(0), m.VersionHeader(1)
		info := wire.ModelInfo{
			Name:    m.Name,
			Tensors: len(m.Tensors),
			Bytes:   m.TotalSize(),
			Slot0:   index.StateName(h0.State),
			Slot1:   index.StateName(h1.State),
			Node:    d.cfg.NodeName,
			Owner:   d.cfg.Group.Owner(m.Name),
		}
		if h0.State == index.StateDone {
			info.Slot0Iter, info.Slot0CRC = h0.Iteration, h0.CRC
		}
		if h1.State == index.StateDone {
			info.Slot1Iter, info.Slot1CRC = h1.Iteration, h1.CRC
		}
		if _, v, ok := m.LatestDone(); ok {
			info.HasDone = true
			info.LatestIter = v.Iteration
		}
		resp.Models = append(resp.Models, info)
	}
	d.send(env, conn, resp)
}

// handleDelete removes a finished model and frees its PMem. The store
// delete runs first: if it fails, the ModelMap is untouched, so the
// model stays visible and servable instead of lingering on PMem as an
// orphan the daemon no longer knows about.
func (d *Daemon) handleDelete(env sim.Env, conn wire.Conn, m *wire.Msg) {
	// A maintenance lease alone doesn't block deletion: doMaintenance
	// forgets the lane afterward, and the engine clears the deleted
	// handle's pointers so a compaction queued behind it moves nothing.
	if !d.sched.IdleTenant(m.Model) {
		d.sendErrFor(env, conn, wire.TDelete, 0, m.Model, "model has an operation in flight")
		return
	}
	d.mu.Lock()
	err := errNoModel(m.Model)
	if tn := d.tenants[m.Model]; tn != nil {
		if err = d.eng.DeleteModel(tn.model); err == nil {
			delete(d.tenants, m.Model)
		}
	}
	d.mu.Unlock()
	if err != nil {
		d.sendErrFor(env, conn, wire.TDelete, 0, m.Model, err.Error())
		return
	}
	d.sched.Forget(m.Model)
	d.event(env, telemetry.Event{Kind: telemetry.EvAdminDelete, Model: m.Model})
	d.send(env, conn, &wire.Msg{Type: wire.TDeleteOK, Model: m.Model})
	// Deletion turns live bytes into garbage; reclaim in the background
	// once the fragmentation watermark trips.
	if d.eng.NeedsRepack() {
		d.runRepack(env, false)
	}
}

// handleDump archives the newest complete version of a model as a
// torch.save-style container and ships it over the control plane: the
// one place Portus ever serializes (§VI: "Portus will perform
// serialization only upon an archive of a checkpoint"), and it happens
// on the daemon, off the training path.
func (d *Daemon) handleDump(env sim.Env, conn wire.Conn, m *wire.Msg) {
	model, _ := d.find(m.Model)
	if model == nil {
		d.sendErrFor(env, conn, wire.TDump, 0, m.Model, errNoModel(m.Model).Error())
		return
	}
	slot, v, ok := model.LatestDone()
	if !ok {
		d.send(env, conn, errMsg(wire.TDump, wire.ErrCodeNoCheckpoint, 0, m.Model, "no complete checkpoint version to archive"))
		return
	}
	d.event(env, telemetry.Event{Kind: telemetry.EvAdminDump, Model: m.Model, Iteration: v.Iteration})
	// DUMP holds no lane, so a commit into the slot or a repack move can
	// race the copy; the archive is refused unless its bytes hash to the
	// version's stamp.
	ckpt, err := store.Archive(d.cfg.PMem, model, slot, v)
	if err != nil {
		d.tel.crcFailures.Inc()
		d.send(env, conn, errMsg(wire.TDump, wire.ErrCodeCorrupt, v.Iteration, m.Model, err.Error()))
		return
	}
	// The archive pass pays the serialization cost Portus keeps off the
	// checkpoint path.
	sim.Charge(env, time.Duration(len(ckpt.Tensors))*perfmodel.SerializePerTensor)
	sim.Charge(env, sim.TransferTime(ckpt.ModeledSize(), perfmodel.SerializeBW, 0, 0))
	var buf bytes.Buffer
	if err := serialize.Encode(&buf, ckpt); err != nil {
		d.sendErrFor(env, conn, wire.TDump, 0, m.Model, err.Error())
		return
	}
	d.send(env, conn, &wire.Msg{
		Type: wire.TDumpResp, Model: m.Model, Iteration: v.Iteration, Payload: buf.Bytes(), CRC: v.CRC,
	})
}

// handleDescribe answers DESCRIBE with the REPLICATE message a laggard
// replica needs to pull one DONE version — the newest, or the iteration
// the request pins — out of this node's PMem: the tensors with their
// slot extents under the data zone's rkey, this node's fabric identity,
// the version's stamp and its trusted digest table. Nothing is leased:
// a slot overwritten before the laggard's pull ends cannot hash to the
// stamp, so the laggard refuses the copy.
func (d *Daemon) handleDescribe(env sim.Env, conn wire.Conn, m *wire.Msg) {
	model, _ := d.find(m.Model)
	slot, v, ok := 0, index.Version{}, false
	if model != nil {
		slot, v, ok = doneSlot(model, m.Iteration)
	}
	if !ok {
		d.send(env, conn, errMsg(wire.TDescribe, wire.ErrCodeNoCheckpoint, m.Iteration, m.Model,
			fmt.Sprintf("no complete version of iteration %d to replicate", m.Iteration)))
		return
	}
	self, _ := d.cfg.Group.Lookup(d.cfg.NodeName)
	resp := &wire.Msg{
		Type: wire.TReplicate, Model: m.Model, Iteration: v.Iteration, CRC: v.CRC,
		ClientNode: d.cfg.RNode.Name(), FabricAddr: self.FabricAddr,
	}
	for i, tm := range model.Tensors {
		resp.Tensors = append(resp.Tensors, wire.TensorRef{
			Name: tm.Name, DType: uint8(tm.DType), Dims: tm.Dims, Size: tm.Size,
			RKey: d.cx.LocalMR.RKey, Off: model.TensorData(i, slot).Off,
		})
	}
	if t := model.Digests(slot, 0); t != nil {
		resp.Digests, resp.DeltaBlock = t.Digests, t.BlockBytes
	}
	d.send(env, conn, resp)
}

// handleReplicate re-replicates a peer's version: m is the holder's
// answer to DESCRIBE. The model is admitted without attaching a client,
// and the version is checkpointed like a client's — planned as a delta
// against this node's own older version when the holder's table allows,
// pulled one-sided from the holder's PMem, stamped and committed —
// except that commit refuses DONE unless the stamp is the holder's.
func (d *Daemon) handleReplicate(env sim.Env, conn wire.Conn, m *wire.Msg) {
	if len(m.Tensors) == 0 || m.Iteration == 0 {
		d.sendErrFor(env, conn, wire.TReplicate, m.Iteration, m.Model, "replicate names no tensors or no iteration")
		return
	}
	if !d.owns(env, conn, wire.TReplicate, m.Iteration, m.Model) {
		return
	}
	metas, mrs := d.regions(m)
	model, err := d.admit(m.Model, metas, nil)
	if err != nil {
		d.sendErrFor(env, conn, wire.TReplicate, m.Iteration, m.Model, err.Error())
		return
	}
	d.event(env, telemetry.Event{Kind: telemetry.EvAdminReplicate, Model: m.Model, Iteration: m.Iteration, Detail: "from " + m.ClientNode})
	d.submit(env, m, sched.ClassCheckpoint, &reqCtx{
		req: wire.TReplicate, model: model, mrs: mrs, conn: conn, digests: m.Digests, deltaBlock: m.DeltaBlock, wantCRC: m.CRC,
	})
}
