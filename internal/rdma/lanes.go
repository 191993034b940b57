package rdma

import (
	"time"

	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/sim"
)

// QP is one connected queue pair — a "lane" the datapath engine stripes
// chunks across. Verbs issued on different lanes proceed concurrently
// and share the node's NIC and device bandwidth under the simulation
// engine's processor-sharing model, so multi-lane striping helps
// exactly when a single flow cannot saturate a stage (e.g. the GPU BAR
// read cap below the NIC line rate).
//
// A QP carries no per-connection state of its own in this model — the
// fabric routes by node name and rkey — but it is a real cost center:
// establishing each lane beyond the first pays the queue-pair creation
// and connection handshake.
type QP struct {
	// ID is the lane index, used for trace-span attribution.
	ID int
	// Node is the local RDMA node the lane issues verbs from.
	Node *Node
}

// ConnectLanes establishes count queue pairs on node and returns them.
// The first lane rides the connection the control plane has already
// paid for (client registration charges QPConnectCost); every
// additional lane charges one more queue-pair handshake. count < 1 is
// treated as 1.
func ConnectLanes(env sim.Env, node *Node, count int) []*QP {
	if count < 1 {
		count = 1
	}
	if count > 1 {
		env.Sleep(time.Duration(count-1) * perfmodel.QPConnectCost)
	}
	lanes := make([]*QP, count)
	for i := range lanes {
		lanes[i] = &QP{ID: i, Node: node}
	}
	return lanes
}
