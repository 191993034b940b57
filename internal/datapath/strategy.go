package datapath

import (
	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
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
	// HostStage is the storage server's DRAM staging resource; required
	// by HostStaged, unused by the other strategies.
	HostStage *sim.BandwidthResource
}

func (cx *Context) local(c Chunk) rdma.Slice {
	return rdma.Slice{MR: cx.LocalMR, Off: c.PMemOff, Len: c.Len}
}

func (cx *Context) remote(c Chunk) rdma.RemoteSlice {
	return rdma.RemoteSlice{MR: cx.Remote[c.Tensor], Off: c.TensorOff, Len: c.Len}
}

// Strategy moves one chunk between the client and PMem. The daemon's
// ablation variants are strategies rather than datapath branches, so
// the engine's chunking, retry and flush apply to all of them
// uniformly.
type Strategy interface {
	Name() string
	// Pull moves the chunk from the client's memory into PMem
	// (checkpoint direction).
	Pull(env sim.Env, cx *Context, c Chunk) error
	// Push moves the chunk from PMem into the client's memory (restore
	// direction).
	Push(env sim.Env, cx *Context, c Chunk) error
}

// OneSided is the paper's datapath: a single one-sided verb per chunk,
// zero-copy on both ends (§III-B).
type OneSided struct{}

// Name identifies the strategy in traces and benchmarks.
func (OneSided) Name() string { return "one-sided" }

// Pull issues one one-sided READ landing directly in PMem.
func (OneSided) Pull(env sim.Env, cx *Context, c Chunk) error {
	return cx.Fabric.Read(env, cx.Local, cx.local(c), cx.remote(c))
}

// Push issues one one-sided WRITE directly from PMem.
func (OneSided) Push(env sim.Env, cx *Context, c Chunk) error {
	return cx.Fabric.Write(env, cx.Local, cx.local(c), cx.remote(c))
}

// TwoSided models the rendezvous + receiver-copy cost of a two-sided
// SEND/RECV protocol on top of the same transfer (ablation; DESIGN.md
// §5).
type TwoSided struct{}

// Name identifies the strategy in traces and benchmarks.
func (TwoSided) Name() string { return "two-sided" }

// Pull charges the rendezvous latency delta, transfers, then pays the
// receiver-side copy out of the bounce buffer.
func (TwoSided) Pull(env sim.Env, cx *Context, c Chunk) error {
	sim.Charge(env, perfmodel.TwoSidedLatency-perfmodel.RDMALatency)
	if err := cx.Fabric.Read(env, cx.Local, cx.local(c), cx.remote(c)); err != nil {
		return err
	}
	sim.PipelineTransfer(env, c.Len, perfmodel.DefaultChunk,
		sim.Stage{Res: cx.Local.NIC(), FlowCap: perfmodel.BeeGFSTransferBW})
	return nil
}

// Push is one-sided: the restore direction has no server-side bounce
// buffer to model, and the paper's ablations vary only the checkpoint
// path.
func (TwoSided) Push(env sim.Env, cx *Context, c Chunk) error {
	return OneSided{}.Push(env, cx, c)
}

// HostStaged lands chunks in server DRAM first, then copies them to
// PMem — the extra hop Portus's zero-copy design removes (ablation).
type HostStaged struct{}

// Name identifies the strategy in traces and benchmarks.
func (HostStaged) Name() string { return "host-staged" }

// Pull transfers into DRAM, then pays the DRAM→PMem staging copy.
func (HostStaged) Pull(env sim.Env, cx *Context, c Chunk) error {
	if err := cx.Fabric.Read(env, cx.Local, cx.local(c), cx.remote(c)); err != nil {
		return err
	}
	cx.HostStage.Transfer(env, c.Len, perfmodel.PMemWriteBW, 0)
	return nil
}

// Push is one-sided (see TwoSided.Push).
func (HostStaged) Push(env sim.Env, cx *Context, c Chunk) error {
	return OneSided{}.Push(env, cx, c)
}
