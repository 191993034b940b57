// Package datapath implements the transfer core shared by checkpoint
// (pull) and restore (push): a Plan that splits a model's tensors into
// chunks, and an Engine that executes the plan the paper's way: every
// chunk is one one-sided verb, zero-copy on both ends (§III-B), posted
// in plan order as one list on one queue pair, then the batch is
// flushed. The ablation datapaths of §V-D are fabric wrappers, not
// engine paths.
//
// The engine preserves the daemon's crash-consistency contract: Pull
// returns only after every chunk of the plan has been flushed, so the
// caller can commit the version slot's done flag knowing the slot is
// complete on media.
package datapath

import (
	"strconv"

	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/telemetry"
)

// Context carries the endpoints a transfer runs between: the daemon's
// fabric and RDMA node, the MR covering the whole PMem data zone, and
// the client's per-tensor remote regions (indexed by Chunk.Tensor).
type Context struct {
	Fabric  rdma.Fabric
	Local   *rdma.Node
	LocalMR rdma.MR
	Remote  []rdma.RemoteMR
	// Trace links this transfer's flight-recorder retry events to the
	// request's trace; zero when the request is untraced.
	Trace telemetry.TraceID
}

func (cx *Context) local(c Chunk) rdma.Slice {
	return rdma.Slice{MR: cx.LocalMR, Off: c.PMemOff, Len: c.Len}
}

func (cx *Context) remote(c Chunk) rdma.RemoteSlice {
	return rdma.RemoteSlice{MR: cx.Remote[c.Tensor], Off: c.TensorOff, Len: c.Len}
}

// TensorRange describes one tensor's endpoints for a transfer: its
// TensorData extent in the PMem data zone and its size. The remote
// (GPU-side) region is identified positionally — Context.Remote is
// indexed by the tensor's position in the slice handed to NewPlan.
type TensorRange struct {
	Name    string
	PMemOff int64 // TensorData extent base within the PMem data zone
	Size    int64
}

// Chunk is one schedulable unit of datapath work: a contiguous byte
// range of one tensor, addressed on both ends.
type Chunk struct {
	Tensor    int    // index into the planned tensors (and Context.Remote)
	Name      string // tensor name, for trace spans
	Seq       int    // chunk index within its tensor
	Chunks    int    // total chunks of this tensor
	TensorOff int64  // offset within the tensor (= offset within the remote MR)
	PMemOff   int64  // absolute offset within the PMem data zone
	Len       int64
	// label is the precomputed span-name suffix ("<tensor>" or
	// "<tensor>#<seq>"): spanName runs per transfer attempt, so
	// formatting is paid once at planning time.
	label string
}

// spanName labels the chunk's trace span: "pull:<tensor>" when the
// tensor is a single chunk (the pre-chunking span name, which tooling
// keys on), "pull:<tensor>#<seq>" when split.
func (c Chunk) spanName(verb string) string {
	if c.label != "" {
		return verb + ":" + c.label
	}
	// Hand-built chunks (tests) have no precomputed label.
	if c.Chunks <= 1 {
		return verb + ":" + c.Name
	}
	return verb + ":" + c.Name + "#" + strconv.Itoa(c.Seq)
}

// Plan is an ordered chunk schedule covering every tensor extent
// exactly once.
type Plan struct {
	Chunks []Chunk
	Bytes  int64
}

// Extent is a dirty byte range of one tensor, produced by the delta
// differ: only these ranges move over the fabric on an incremental
// checkpoint. Tensor indexes the same slice positions NewPlan uses, so
// a delta plan's chunks address Context.Remote identically to a full
// plan's.
type Extent struct {
	Tensor    int
	Name      string
	TensorOff int64 // offset within the tensor (= offset within the remote MR)
	PMemOff   int64 // absolute offset of this range within the PMem data zone
	Size      int64
}

// NewDeltaPlan builds a chunk schedule covering exactly the given dirty
// extents — the incremental-checkpoint counterpart of NewPlan. Each
// extent splits into chunks of at most chunkSize bytes under the same
// MinChunk clamp; extents themselves are never merged, so the plan
// moves precisely the bytes the differ marked dirty.
func NewDeltaPlan(extents []Extent, chunkSize int64) Plan {
	if chunkSize > 0 && chunkSize < perfmodel.MinChunk {
		chunkSize = perfmodel.MinChunk
	}
	var p Plan
	for _, x := range extents {
		p.Bytes += x.Size
		n := 1
		if chunkSize > 0 && x.Size > chunkSize {
			n = int((x.Size + chunkSize - 1) / chunkSize)
		}
		for k := 0; k < n; k++ {
			off := int64(k) * chunkSize
			ln := x.Size
			if n > 1 {
				ln = x.Size - off
				if ln > chunkSize {
					ln = chunkSize
				}
			}
			// The label carries the tensor-relative range so delta chunks
			// are distinguishable from full-plan chunks in traces.
			label := x.Name + "@" + strconv.FormatInt(x.TensorOff+off, 10)
			p.Chunks = append(p.Chunks, Chunk{
				Tensor:    x.Tensor,
				Name:      x.Name,
				Seq:       k,
				Chunks:    n,
				TensorOff: x.TensorOff + off,
				PMemOff:   x.PMemOff + off,
				Len:       ln,
				label:     label,
			})
		}
	}
	return p
}

// NewPlan splits tensors into chunks of at most chunkSize bytes.
// chunkSize <= 0 disables splitting (one chunk per tensor, matching
// the paper's one-READ-per-tensor datapath); positive values are
// clamped up to perfmodel.MinChunk, below which per-verb issue cost
// dominates.
func NewPlan(tensors []TensorRange, chunkSize int64) Plan {
	if chunkSize > 0 && chunkSize < perfmodel.MinChunk {
		chunkSize = perfmodel.MinChunk
	}
	var p Plan
	for ti, t := range tensors {
		p.Bytes += t.Size
		n := 1
		if chunkSize > 0 && t.Size > chunkSize {
			n = int((t.Size + chunkSize - 1) / chunkSize)
		}
		for k := 0; k < n; k++ {
			var off, ln int64
			if n == 1 {
				off, ln = 0, t.Size
			} else {
				off = int64(k) * chunkSize
				ln = t.Size - off
				if ln > chunkSize {
					ln = chunkSize
				}
			}
			label := t.Name
			if n > 1 {
				label = t.Name + "#" + strconv.Itoa(k)
			}
			p.Chunks = append(p.Chunks, Chunk{
				Tensor:    ti,
				Name:      t.Name,
				Seq:       k,
				Chunks:    n,
				TensorOff: off,
				PMemOff:   t.PMemOff + off,
				Len:       ln,
				label:     label,
			})
		}
	}
	return p
}
