package rdma

import (
	"time"

	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/sim"
)

// QP is one connected queue pair — the "lane" a datapath engine issues
// its verbs on, and the ID its chunk spans carry. An engine takes one;
// the type stays for callers that still build an engine's Config from
// ConnectLanes.
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
		sim.Charge(env, time.Duration(count-1)*perfmodel.QPConnectCost)
	}
	lanes := make([]*QP, count)
	for i := range lanes {
		lanes[i] = &QP{ID: i, Node: node}
	}
	return lanes
}
