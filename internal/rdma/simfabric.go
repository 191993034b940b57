package rdma

import (
	"fmt"

	"github.com/portus-sys/portus/internal/sim"
)

// SimFabric is the in-process fabric for virtual-time experiments: data
// moves between devices immediately and time is charged on a chunked
// pipeline across the source device, source NIC, destination NIC, and
// destination device.
type SimFabric struct {
	nodes map[string]*Node
	boxes map[string]*sim.Mailbox[simMsg]
	cut   map[string]bool
}

type simMsg struct {
	payload []byte
	size    int64
}

// NewSimFabric creates an empty fabric.
func NewSimFabric() *SimFabric {
	return &SimFabric{
		nodes: make(map[string]*Node),
		boxes: make(map[string]*sim.Mailbox[simMsg]),
		cut:   make(map[string]bool),
	}
}

// AddNode attaches a node to the fabric switch.
func (f *SimFabric) AddNode(n *Node) { f.nodes[n.name] = n }

func (f *SimFabric) node(name string) (*Node, error) {
	n, ok := f.nodes[name]
	if !ok || f.cut[name] {
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, name)
	}
	return n, nil
}

// CutNode severs every fabric route to and from name: subsequent verbs
// touching the node fail with ErrNoRoute, as if its RNIC lost link.
// The node stays attached so RestoreNode can bring it back.
func (f *SimFabric) CutNode(name string) { f.cut[name] = true }

// RestoreNode re-establishes routes to a previously cut node.
func (f *SimFabric) RestoreNode(name string) { delete(f.cut, name) }

// Read pulls r into l with a one-sided RDMA READ issued from local.
func (f *SimFabric) Read(env sim.Env, local *Node, l Slice, r RemoteSlice) error {
	if f.cut[local.name] {
		return fmt.Errorf("%w: %s", ErrNoRoute, local.name)
	}
	remote, err := f.node(r.MR.Node)
	if err != nil {
		return err
	}
	rmr, lmr, err := checkPair(remote, local, r, l, false)
	if err != nil {
		return err
	}
	if err := copyRegions(lmr.Dev, lmr.Off+l.Off, rmr.Dev, rmr.Off+r.MR.Off+r.Off, l.Len); err != nil {
		return err
	}
	srcRates := remote.rates.ForKind(rmr.Dev.Kind())
	dstRates := local.rates.ForKind(lmr.Dev.Kind())
	sim.PipelineTransfer(env, l.Len, pipeChunk(l.Len),
		sim.Stage{Res: remote.devRead[rmr.Dev], FlowCap: srcRates.ReadFlowCap, Latency: local.rates.ReadLatency},
		sim.Stage{Res: remote.nic},
		sim.Stage{Res: local.nic},
		sim.Stage{Res: local.devWrit[lmr.Dev], FlowCap: dstRates.WriteFlowCap},
	)
	return nil
}

// Write pushes l into r with a one-sided RDMA WRITE issued from local.
func (f *SimFabric) Write(env sim.Env, local *Node, l Slice, r RemoteSlice) error {
	if f.cut[local.name] {
		return fmt.Errorf("%w: %s", ErrNoRoute, local.name)
	}
	remote, err := f.node(r.MR.Node)
	if err != nil {
		return err
	}
	rmr, lmr, err := checkPair(remote, local, r, l, true)
	if err != nil {
		return err
	}
	if err := copyRegions(rmr.Dev, rmr.Off+r.MR.Off+r.Off, lmr.Dev, lmr.Off+l.Off, l.Len); err != nil {
		return err
	}
	srcRates := local.rates.ForKind(lmr.Dev.Kind())
	dstRates := remote.rates.ForKind(rmr.Dev.Kind())
	sim.PipelineTransfer(env, l.Len, pipeChunk(l.Len),
		sim.Stage{Res: local.devRead[lmr.Dev], FlowCap: srcRates.ReadFlowCap, Latency: local.rates.WriteLatency},
		sim.Stage{Res: local.nic},
		sim.Stage{Res: remote.nic},
		sim.Stage{Res: remote.devWrit[rmr.Dev], FlowCap: dstRates.WriteFlowCap},
	)
	return nil
}

// Send delivers payload to the peer's (node, qp) receive queue, charging
// size bytes at the two-sided protocol rate.
func (f *SimFabric) Send(env sim.Env, local *Node, remote, qp string, payload []byte, size int64) error {
	if f.cut[local.name] {
		return fmt.Errorf("%w: %s", ErrNoRoute, local.name)
	}
	rn, err := f.node(remote)
	if err != nil {
		return err
	}
	sim.PipelineTransfer(env, size, pipeChunk(size),
		sim.Stage{Res: local.nic, Latency: local.rates.SendLatency},
		sim.Stage{Res: rn.nic},
	)
	if size <= 0 {
		sim.Charge(env, local.rates.SendLatency)
	}
	f.box(env, remote, qp).Send(env, simMsg{payload: payload, size: size})
	return nil
}

// Recv blocks until a message arrives on (local, qp).
func (f *SimFabric) Recv(env sim.Env, local *Node, qp string) ([]byte, int64, error) {
	m, ok := f.box(env, local.name, qp).Recv(env)
	if !ok {
		return nil, 0, fmt.Errorf("rdma: recv on closed qp %s/%s", local.name, qp)
	}
	return m.payload, m.size, nil
}

func (f *SimFabric) box(env sim.Env, node, qp string) *sim.Mailbox[simMsg] {
	key := node + "/" + qp
	b, ok := f.boxes[key]
	if !ok {
		b = sim.NewMailbox[simMsg](env)
		f.boxes[key] = b
	}
	return b
}

// checkPair validates the remote and local slices — the remote one for
// a WRITE when write is set — and returns their MRs.
func checkPair(remote, local *Node, r RemoteSlice, l Slice, write bool) (MR, MR, error) {
	if l.Len != r.Len {
		return MR{}, MR{}, fmt.Errorf("rdma: length mismatch: local %d, remote %d", l.Len, r.Len)
	}
	rmr, err := remote.lookup(r.MR.RKey, r.MR.Off+r.Off, r.Len, write)
	if err != nil {
		return MR{}, MR{}, err
	}
	lmr, err := local.lookup(l.MR.RKey, l.Off, l.Len, false)
	if err != nil {
		return MR{}, MR{}, err
	}
	return rmr, lmr, nil
}
