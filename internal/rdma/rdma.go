// Package rdma provides the verbs-level substrate Portus is built on:
// memory regions with remote keys, queue pairs, and one-sided READ and
// WRITE verbs posted as lists of work requests.
//
// Two fabrics implement the wire:
//
//   - SimFabric runs in-process under the discrete-event engine. Data
//     moves between memdev devices immediately (bytes or content
//     stamps), and virtual time is charged on a chunked pipeline across
//     the source device, both NICs, and the destination device — so NIC
//     contention, the GPU BAR read cap, and PMem bandwidth limits all
//     emerge naturally.
//
//   - TCPFabric runs over real sockets, one agent per node, in the
//     spirit of SoftRoCE: one-sided verbs are served entirely by the
//     remote agent, never by the remote application thread, preserving
//     the property Portus depends on (the training process does not
//     participate in checkpoint transfers).
//
// A Fabric has one verb method, PostList: a list of one-sided verbs per
// post, blocking until every op has completed (post + poll-completion
// combined), so Portus daemon workers issue it from their own
// processes. The concrete fabrics also keep single-verb Read and Write
// for probes and the Figure 10 microbenchmark.
package rdma

import (
	"errors"
	"fmt"
	"sync"

	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/sim"
)

// Errors reported by verbs.
var (
	ErrBadRKey      = errors.New("rdma: unknown remote key")
	ErrOutOfBounds  = errors.New("rdma: access outside memory region")
	ErrNoRoute      = errors.New("rdma: unknown peer node")
	ErrModeMismatch = errors.New("rdma: materialized/virtual mode mismatch between endpoints")
	ErrReadOnly     = errors.New("rdma: remote write to a read-only memory region")
)

// MR is a registered memory region on the local node.
type MR struct {
	RKey uint64
	Dev  *memdev.Device
	Off  int64 // base offset within Dev
	Len  int64
	// ReadOnly is the region's remote-access mode: peers may READ it but
	// not WRITE it (the owning node's own verbs are unaffected), as an
	// RNIC registration without IBV_ACCESS_REMOTE_WRITE.
	ReadOnly bool
}

// RemoteMR is a handle to a memory region on a peer, as learned from a
// registration packet: Len bytes at offset Off of the region RKey names
// (zero for a whole GPU region; a tensor's slot extent when the region
// is a peer daemon's data zone).
type RemoteMR struct {
	Node string
	RKey uint64
	Len  int64
	Off  int64
}

// Node is one RDMA-capable host: an RNIC plus its registered regions.
type Node struct {
	name  string
	rates RateTable

	mu   sync.Mutex
	mrs  map[uint64]MR
	next uint64

	// Simulated resources (nil under a real environment).
	nic     *sim.BandwidthResource
	devRead map[*memdev.Device]*sim.BandwidthResource
	devWrit map[*memdev.Device]*sim.BandwidthResource
}

// NewNode creates a node with the default rate table. Under a simulated
// environment its NIC and device resources are created on env's engine.
func NewNode(env sim.Env, name string) *Node {
	return NewNodeWithRates(env, name, DefaultRates())
}

// NewNodeWithRates creates a node with an explicit rate table (used by
// ablation benches, e.g. varying the BAR read cap).
func NewNodeWithRates(env sim.Env, name string, rates RateTable) *Node {
	n := &Node{
		name:    name,
		rates:   rates,
		mrs:     make(map[uint64]MR),
		devRead: make(map[*memdev.Device]*sim.BandwidthResource),
		devWrit: make(map[*memdev.Device]*sim.BandwidthResource),
	}
	n.nic = sim.NewBandwidthResource(env, name+"/nic", rates.NICBandwidth)
	return n
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// NIC exposes the node's simulated NIC resource (for utilization
// reporting in experiments).
func (n *Node) NIC() *sim.BandwidthResource { return n.nic }

// RegisterMR registers [off, off+len) of dev and returns the region with
// its remote key, as nv_peer_mem does for GPU memory.
func (n *Node) RegisterMR(env sim.Env, dev *memdev.Device, off, length int64) MR {
	return n.register(env, dev, off, length, false)
}

// RegisterReadOnly is RegisterMR for a region peers may only read.
func (n *Node) RegisterReadOnly(env sim.Env, dev *memdev.Device, off, length int64) MR {
	return n.register(env, dev, off, length, true)
}

func (n *Node) register(env sim.Env, dev *memdev.Device, off, length int64, ro bool) MR {
	if off < 0 || length < 0 || off+length > dev.Size() {
		panic(fmt.Sprintf("rdma: register [%d,%d) outside device %s", off, off+length, dev.Name()))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.next++
	mr := MR{RKey: n.next, Dev: dev, Off: off, Len: length, ReadOnly: ro}
	n.mrs[mr.RKey] = mr
	n.ensureDevResourcesLocked(env, dev)
	return mr
}

// DeregisterMR removes a region; subsequent remote access fails with
// ErrBadRKey.
func (n *Node) DeregisterMR(rkey uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.mrs, rkey)
}

// MRCount reports the number of live registrations.
func (n *Node) MRCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.mrs)
}

// lookup resolves an access to [off, off+length) of region rkey, which
// a peer's WRITE (write set) may make only to a writable region.
func (n *Node) lookup(rkey uint64, off, length int64, write bool) (MR, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	mr, ok := n.mrs[rkey]
	if !ok {
		return MR{}, fmt.Errorf("%w: rkey %d on %s", ErrBadRKey, rkey, n.name)
	}
	if off < 0 || length < 0 || off+length > mr.Len {
		return MR{}, fmt.Errorf("%w: [%d,%d) of MR len %d", ErrOutOfBounds, off, off+length, mr.Len)
	}
	if write && mr.ReadOnly {
		return MR{}, fmt.Errorf("%w: rkey %d on %s", ErrReadOnly, rkey, n.name)
	}
	return mr, nil
}

func (n *Node) ensureDevResourcesLocked(env sim.Env, dev *memdev.Device) {
	if _, ok := n.devRead[dev]; ok {
		return
	}
	dr := n.rates.ForKind(dev.Kind())
	n.devRead[dev] = sim.NewBandwidthResource(env, dev.Name()+"/rd", dr.ReadBW)
	n.devWrit[dev] = sim.NewBandwidthResource(env, dev.Name()+"/wr", dr.WriteBW)
}

// Slice names a byte range inside a local MR.
type Slice struct {
	MR  MR
	Off int64 // offset within the MR
	Len int64
}

// RemoteSlice names a byte range inside a peer's MR.
type RemoteSlice struct {
	MR  RemoteMR
	Off int64
	Len int64
}

// Op is one work request of a posted list: a one-sided verb between a
// local slice and a remote one.
type Op struct {
	L Slice
	R RemoteSlice
}

// Fabric carries one-sided verbs between nodes as posted lists, the way
// an RNIC takes a chain of work requests per doorbell: the ops are all
// in flight at once and complete in list order.
type Fabric interface {
	// PostList posts ops — all WRITEs when write is set, else all READs,
	// all to the peer of ops[0] — and returns once every op has
	// completed. done(i, err) reports op i's completion exactly once, in
	// list order, on the caller's goroutine; it must not issue verbs on
	// the fabric. A failed op does not stop the others.
	PostList(env sim.Env, local *Node, write bool, ops []Op, done func(i int, err error))
}
