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
	cut   map[string]bool
}

// NewSimFabric creates an empty fabric.
func NewSimFabric() *SimFabric {
	return &SimFabric{
		nodes: make(map[string]*Node),
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

// PostList runs ops in list order, each one exactly as Read or Write
// runs it alone, and reports each completion as it lands.
func (f *SimFabric) PostList(env sim.Env, local *Node, write bool, ops []Op, done func(i int, err error)) {
	verb := f.Read
	if write {
		verb = f.Write
	}
	for i, o := range ops {
		done(i, verb(env, local, o.L, o.R))
	}
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
