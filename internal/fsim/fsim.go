// Package fsim implements the baseline storage paths the paper compares
// Portus against (§V-A):
//
//   - BeeGFS stacked on ext4-DAX over the fsdax half of the Optane
//     namespace (BeeGFS-PMem): the traditional distributed checkpoint
//     path of Figure 3 — serialize on the client, cross into the
//     client kernel module, ship the file to the daemon with two-sided
//     RPC-over-RDMA, persist with a DAX write on the server. Three
//     redundant copies, three kernel crossings.
//
//   - Local ext4 on NVMe SSD (ext4-NVMe): no network, but the block
//     layer's kernel crossings and journaling throttle it (Fig. 13:
//     53.7% of the local checkpoint time).
//
// Each backend moves real checkpoint containers (or stamp-tracked
// virtual ones) and charges the calibrated stage costs sequentially —
// matching the additive breakdown of Table I.
package fsim

import (
	"fmt"
	"sync"
	"time"

	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/serialize"
	"github.com/portus-sys/portus/internal/sim"
)

// Stats counts datapath work per backend, including the cumulative
// per-stage time breakdown behind Table I and Figure 13.
type Stats struct {
	Saves           int
	Loads           int
	Copies          int // redundant data copies beyond the device-to-device minimum
	KernelCrossings int
	BytesWritten    int64

	SerializeTime time.Duration // pickling on the client
	MetadataTime  time.Duration // path/permission/syscall overheads
	TransferTime  time.Duration // network (or block device) transfer
	PersistTime   time.Duration // server-side DAX write / device writeback
}

// Backend is a checkpoint file store reachable from compute nodes.
type Backend interface {
	Name() string
	// Save serializes and persists ckpt, blocking for the full modeled
	// cost (torch.save semantics).
	Save(env sim.Env, from *cluster.ComputeNode, ckpt *serialize.Checkpoint) error
	// Load retrieves the newest container saved under model, charging
	// the GPU-Direct-Storage restore path.
	Load(env sim.Env, to *cluster.ComputeNode, model string) (*serialize.Checkpoint, error)
	Stats() Stats
}

// clone deep-copies a checkpoint so stored state cannot alias caller
// buffers.
func clone(c *serialize.Checkpoint) *serialize.Checkpoint {
	out := &serialize.Checkpoint{Model: c.Model, Iteration: c.Iteration}
	out.Tensors = make([]serialize.Blob, len(c.Tensors))
	for i, b := range c.Tensors {
		nb := b
		nb.Meta.Dims = append([]int64(nil), b.Meta.Dims...)
		if b.Data != nil {
			nb.Data = append([]byte(nil), b.Data...)
		}
		out.Tensors[i] = nb
	}
	return out
}

// chargeSerialize models torch.save's pickling pass on the client.
func chargeSerialize(env sim.Env, from *cluster.ComputeNode, ckpt *serialize.Checkpoint) {
	sim.Charge(env, time.Duration(len(ckpt.Tensors))*perfmodel.SerializePerTensor)
	from.Serializer.Transfer(env, ckpt.ModeledSize(), perfmodel.SerializeBW, 0)
}

// chargeReconstruct models deserialization and module reconstruction
// during restore.
func chargeReconstruct(env sim.Env, ckpt *serialize.Checkpoint) {
	sim.Charge(env, perfmodel.RestoreReconstruct+
		time.Duration(len(ckpt.Tensors))*perfmodel.RestorePerTensor)
}

// BeeGFS is the shared BeeGFS-PMem filesystem: one instance serves all
// compute nodes through the storage node's daemon.
type BeeGFS struct {
	storage *cluster.StorageNode

	mu    sync.Mutex
	files map[string]*serialize.Checkpoint
	stats Stats
}

// NewBeeGFS mounts the shared filesystem backed by the storage node.
func NewBeeGFS(storage *cluster.StorageNode) *BeeGFS {
	return &BeeGFS{storage: storage, files: make(map[string]*serialize.Checkpoint)}
}

// Name returns the paper's label for this baseline.
func (b *BeeGFS) Name() string { return "BeeGFS-PMEM" }

// Save runs the traditional distributed checkpoint path.
func (b *BeeGFS) Save(env sim.Env, from *cluster.ComputeNode, ckpt *serialize.Checkpoint) error {
	size := ckpt.ModeledSize()

	// Step 2 of Figure 3: serialize into a checkpoint file and write it
	// to the BeeGFS client module (first kernel crossing).
	t0 := env.Now()
	chargeSerialize(env, from, ckpt)
	sim.Charge(env, perfmodel.BeeGFSKernelCrossing)
	t1 := env.Now()

	// Path resolution, permission checks, striping metadata — the
	// per-layer small-write overhead that makes models with many small
	// tensors (ResNet50) the traditional path's worst case (§V-C1).
	// The cost saturates once writes batch across the stripe width.
	metaTensors := len(ckpt.Tensors)
	if metaTensors > 300 {
		metaTensors = 300
	}
	sim.Charge(env, perfmodel.BeeGFSMetadataBase+
		time.Duration(metaTensors)*perfmodel.BeeGFSMetadataPerTensor)
	t2 := env.Now()

	// Step 3: the client module ships the file to the BeeGFS daemon via
	// two-sided RPC-over-RDMA (second crossing); concurrent writers
	// contend in the daemon.
	sim.PipelineTransfer(env, size, 4*perfmodel.MiB,
		sim.Stage{Res: from.RNode.NIC(), FlowCap: perfmodel.BeeGFSTransferBW, Latency: perfmodel.TwoSidedLatency},
		sim.Stage{Res: b.storage.Ingest},
	)
	t3 := env.Now()

	// Step 4: the daemon persists with a DAX write onto ext4-DAX (third
	// crossing).
	sim.Charge(env, perfmodel.BeeGFSKernelCrossing)
	b.storage.DAX.Transfer(env, size, perfmodel.BeeGFSDAXWriteBW, perfmodel.PMemLatency)
	t4 := env.Now()

	b.mu.Lock()
	b.files[ckpt.Model] = clone(ckpt)
	b.stats.Saves++
	b.stats.Copies += 2 // client mem -> server mem -> PMem
	b.stats.KernelCrossings += 3
	b.stats.BytesWritten += size
	b.stats.SerializeTime += t1 - t0
	b.stats.MetadataTime += t2 - t1
	b.stats.TransferTime += t3 - t2
	b.stats.PersistTime += t4 - t3
	b.mu.Unlock()
	return nil
}

// Load retrieves a container over the GPU-Direct-Storage read path.
func (b *BeeGFS) Load(env sim.Env, to *cluster.ComputeNode, model string) (*serialize.Checkpoint, error) {
	b.mu.Lock()
	ckpt, ok := b.files[model]
	if ok {
		ckpt = clone(ckpt)
	}
	b.stats.Loads++
	b.stats.KernelCrossings += 2
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fsim: beegfs: no checkpoint for %q", model)
	}
	sim.Charge(env, perfmodel.BeeGFSMetadataBase/2)
	sim.PipelineTransfer(env, ckpt.ModeledSize(), 4*perfmodel.MiB,
		sim.Stage{Res: b.storage.Ingest, FlowCap: perfmodel.GDSRestoreBW, Latency: perfmodel.TwoSidedLatency},
		sim.Stage{Res: to.RNode.NIC()},
	)
	chargeReconstruct(env, ckpt)
	return ckpt, nil
}

// Stats returns datapath counters.
func (b *BeeGFS) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Ext4NVMe is a compute node's local SSD filesystem.
type Ext4NVMe struct {
	node *cluster.ComputeNode

	mu    sync.Mutex
	files map[string]*serialize.Checkpoint
	stats Stats
}

// NewExt4NVMe mounts the node-local baseline.
func NewExt4NVMe(node *cluster.ComputeNode) *Ext4NVMe {
	return &Ext4NVMe{node: node, files: make(map[string]*serialize.Checkpoint)}
}

// Name returns the paper's label for this baseline.
func (e *Ext4NVMe) Name() string { return "ext4-NVMe" }

// Save serializes and writes the container through the block layer.
func (e *Ext4NVMe) Save(env sim.Env, from *cluster.ComputeNode, ckpt *serialize.Checkpoint) error {
	if from != e.node {
		return fmt.Errorf("fsim: ext4 on %s not reachable from %s", e.node.Name, from.Name)
	}
	size := ckpt.ModeledSize()
	t0 := env.Now()
	chargeSerialize(env, from, ckpt)
	t1 := env.Now()

	// Chunked write() syscalls into the page cache, journal commit, and
	// device writeback: 53.7% of the local checkpoint time (Fig. 13).
	chunks := (size + perfmodel.Ext4WriteChunk - 1) / perfmodel.Ext4WriteChunk
	sim.Charge(env, time.Duration(chunks)*perfmodel.Ext4SyscallOverhead)
	t2 := env.Now()
	e.node.NVMe.Transfer(env, size, perfmodel.Ext4EffectiveWriteBW, 0)
	t3 := env.Now()

	e.mu.Lock()
	e.stats.SerializeTime += t1 - t0
	e.stats.MetadataTime += t2 - t1
	e.stats.PersistTime += t3 - t2
	e.files[ckpt.Model] = clone(ckpt)
	e.stats.Saves++
	e.stats.Copies++ // user buffer -> page cache
	e.stats.KernelCrossings += int(chunks)
	e.stats.BytesWritten += size
	e.mu.Unlock()
	return nil
}

// Load reads the container back through GPU-Direct Storage (page cache
// bypassed).
func (e *Ext4NVMe) Load(env sim.Env, to *cluster.ComputeNode, model string) (*serialize.Checkpoint, error) {
	e.mu.Lock()
	ckpt, ok := e.files[model]
	if ok {
		ckpt = clone(ckpt)
	}
	e.stats.Loads++
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fsim: ext4: no checkpoint for %q", model)
	}
	size := ckpt.ModeledSize()
	chunks := (size + perfmodel.Ext4WriteChunk - 1) / perfmodel.Ext4WriteChunk
	sim.Charge(env, time.Duration(chunks)*perfmodel.Ext4SyscallOverhead)
	e.node.NVMe.Transfer(env, size, perfmodel.Ext4EffectiveReadBW, 0)
	chargeReconstruct(env, ckpt)
	e.mu.Lock()
	e.stats.KernelCrossings += int(chunks)
	e.mu.Unlock()
	return ckpt, nil
}

// Stats returns datapath counters.
func (e *Ext4NVMe) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}
