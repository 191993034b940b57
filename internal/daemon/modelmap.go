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
	"github.com/portus-sys/portus/internal/serialize"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/store"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// tenant is one stored model's ModelMap entry. model is the single live
// handle onto its persistent MIndex: every request path — checkpoint,
// restore, LIST, DUMP, LOAD, delete, repack — reads and repoints extents
// through this one in-memory PAddr cache, so none can go stale. mrs are
// the attached client's GPU memory regions, keyed one-to-one to the
// model's tensors; nil until a client registers (after a daemon restart
// or an anti-entropy LOAD the model is stored but nobody is attached).
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
	model *index.Model
	mrs   []rdma.RemoteMR
	conn  wire.Conn
	// digests/deltaBlock carry a delta client's block-digest vector from
	// DO_CHECKPOINT to the worker; empty means full checkpoint.
	digests    []uint64
	deltaBlock int64
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
	if m.FabricAddr != "" {
		if pa, ok := d.cfg.Fabric.(peerAdder); ok {
			pa.AddPeer(m.ClientNode, m.FabricAddr)
		}
	}
	metas := make([]index.TensorMeta, len(m.Tensors))
	mrs := make([]rdma.RemoteMR, len(m.Tensors))
	for i, t := range m.Tensors {
		metas[i] = index.TensorMeta{Name: t.Name, DType: index.DType(t.DType), Dims: t.Dims, Size: t.Size}
		mrs[i] = rdma.RemoteMR{Node: m.ClientNode, RKey: t.RKey, Len: t.Size}
	}
	env.Sleep(time.Duration(len(m.Tensors)) * perfmodel.IndexInsertCost)

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
// LOAD: create the model (all-or-nothing through the engine) or
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
	d.tel.adminList.Inc()
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
	d.tel.adminDelete.Inc()
	d.event(env, telemetry.Event{Kind: telemetry.EvAdminDelete, Model: m.Model})
	d.send(env, conn, &wire.Msg{Type: wire.TDeleteOK, Model: m.Model})
	// Deletion turns live bytes into garbage; reclaim in the background
	// once the fragmentation watermark trips.
	if d.eng.NeedsRepack() {
		d.runRepack(env, false)
	}
}

// handleDump archives a complete version of a model — the newest, or
// the exact iteration an anti-entropy re-replication pins — as a
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
	slot, v, ok := doneSlot(model, m.Iteration)
	if !ok {
		msg := "no complete checkpoint version to archive"
		if m.Iteration != 0 {
			msg = fmt.Sprintf("iteration %d has no complete version to archive", m.Iteration)
		}
		d.send(env, conn, errMsg(wire.TDump, wire.ErrCodeNoCheckpoint, m.Iteration, m.Model, msg))
		return
	}
	d.tel.adminDump.Inc()
	d.event(env, telemetry.Event{Kind: telemetry.EvAdminDump, Model: m.Model, Iteration: v.Iteration})
	data := d.cfg.PMem.Data()
	ckpt := &serialize.Checkpoint{Model: model.Name, Iteration: v.Iteration}
	for i, tm := range model.Tensors {
		ext := model.TensorData(i, slot)
		blob := serialize.Blob{Meta: tm}
		if d.cfg.PMem.Materialized() {
			blob.Data = data.Bytes(ext.Off, ext.Size)
		} else {
			blob.Virtual = true
			blob.Stamp = data.StampOf(ext.Off, ext.Size)
		}
		ckpt.Tensors = append(ckpt.Tensors, blob)
	}
	// The archive pass pays the serialization cost Portus keeps off the
	// checkpoint path.
	env.Sleep(time.Duration(len(ckpt.Tensors)) * perfmodel.SerializePerTensor)
	env.Sleep(sim.TransferTime(ckpt.ModeledSize(), perfmodel.SerializeBW, 0, 0))
	var buf bytes.Buffer
	if err := serialize.Encode(&buf, ckpt); err != nil {
		d.sendErrFor(env, conn, wire.TDump, 0, m.Model, err.Error())
		return
	}
	d.send(env, conn, &wire.Msg{
		Type: wire.TDumpResp, Model: m.Model, Iteration: v.Iteration, Payload: buf.Bytes(), CRC: v.CRC,
	})
}

// handleLoad installs a serialized checkpoint container (the DUMP_RESP
// payload format) into PMem as a DONE version — the anti-entropy path
// that rebuilds a replacement replica from a healthy peer's archived
// copy, without the source GPU in the loop. The install commits through
// the same transaction as a checkpoint, verified against the shipped
// CRC before its DONE flag, and is idempotent for an already-present
// iteration.
func (d *Daemon) handleLoad(env sim.Env, conn wire.Conn, m *wire.Msg) {
	ckpt, err := serialize.Decode(bytes.NewReader(m.Payload))
	if err != nil {
		d.sendErrFor(env, conn, wire.TLoad, m.Iteration, m.Model, fmt.Sprintf("decoding container: %v", err))
		return
	}
	if m.Model != "" && ckpt.Model != m.Model {
		d.sendErrFor(env, conn, wire.TLoad, m.Iteration, m.Model,
			fmt.Sprintf("container holds model %q, not %q", ckpt.Model, m.Model))
		return
	}
	if ckpt.Iteration == 0 || len(ckpt.Tensors) == 0 {
		d.sendErrFor(env, conn, wire.TLoad, m.Iteration, ckpt.Model, "container has no committed iteration or tensors")
		return
	}
	if !d.owns(env, conn, wire.TLoad, ckpt.Iteration, ckpt.Model) {
		return
	}
	metas := make([]index.TensorMeta, len(ckpt.Tensors))
	for i, b := range ckpt.Tensors {
		metas[i] = b.Meta
	}
	model, err := d.admit(ckpt.Model, metas, nil)
	if err != nil {
		msg := err.Error()
		if errors.Is(err, errStructMismatch) {
			msg = "container does not match stored model structure"
		}
		d.sendErrFor(env, conn, wire.TLoad, ckpt.Iteration, ckpt.Model, msg)
		return
	}
	if _, h, ok := doneSlot(model, ckpt.Iteration); ok {
		d.send(env, conn, &wire.Msg{Type: wire.TLoadOK, Model: ckpt.Model, Iteration: ckpt.Iteration, CRC: h.CRC})
		return
	}
	data := d.cfg.PMem.Data()
	slot := model.TargetSlot()
	crc, err := d.commit(env, version{model: model, slot: slot, iter: ckpt.Iteration, wantCRC: m.CRC}, func() error {
		var wrote int64
		for i, blob := range ckpt.Tensors {
			ext := model.TensorData(i, slot)
			if blob.Virtual {
				data.WriteStamp(ext.Off, ext.Size, blob.Stamp)
			} else {
				if int64(len(blob.Data)) != ext.Size {
					return fmt.Errorf("tensor %q payload is %d bytes, slot holds %d", blob.Meta.Name, len(blob.Data), ext.Size)
				}
				data.Write(ext.Off, blob.Data)
			}
			if err := d.cfg.Flush(ext.Off, ext.Size); err != nil {
				return fmt.Errorf("flushing tensor %q: %v", blob.Meta.Name, err)
			}
			wrote += ext.Size
		}
		// Pay the deserialization cost (the inverse of the archive pass)
		// and the PMem write bandwidth for the installed bytes.
		env.Sleep(time.Duration(len(ckpt.Tensors)) * perfmodel.SerializePerTensor)
		env.Sleep(sim.TransferTime(wrote, perfmodel.SerializeBW, 0, 0))
		return nil
	})
	switch {
	case err == nil:
		d.tel.adminLoad.Inc()
		d.event(env, telemetry.Event{Kind: telemetry.EvAdminLoad, Model: ckpt.Model, Iteration: ckpt.Iteration})
		d.send(env, conn, &wire.Msg{Type: wire.TLoadOK, Model: ckpt.Model, Iteration: ckpt.Iteration, CRC: crc})
	case errors.Is(err, errCRCMismatch):
		// The copy does not match the source's fingerprint: the slot
		// stays ACTIVE (never restorable) rather than commit a bad DONE.
		d.send(env, conn, errMsg(wire.TLoad, wire.ErrCodeCorrupt, ckpt.Iteration, ckpt.Model,
			fmt.Sprintf("%v (source CRC %016x, computed %016x)", err, m.CRC, crc)))
	default:
		d.sendErrFor(env, conn, wire.TLoad, ckpt.Iteration, ckpt.Model, err.Error())
	}
}
