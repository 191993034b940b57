// Router: the client-side half of the sharded storage tier. A training
// job's shards are registered with the daemons the placement table
// assigns each one — the top-rf rendezvous owners at replication
// factor rf; checkpoints fan out across every replica concurrently;
// restores stripe back from the healthiest replica of each shard,
// pinned to the manifest's group-committed iteration and verified
// against the CRC stamped at commit. Each replica reuses the full
// single-daemon Client machinery — reconnect, busy backoff, tracing —
// against its own daemon.
//
// Failure handling: transport-class errors (dial failure, request
// timeout, a severed fabric route) mark the node suspect. A suspect
// node is removed from the placement map (an epoch bump), every shard
// is re-placed over the survivors, and missing replicas are rebuilt by
// anti-entropy re-replication — so checkpoints continue degraded and
// no committed iteration is ever lost. A recovered or replacement node
// re-enters through Join, which runs the same re-place + rebuild path.

package client

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/placement"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// Dial connects to a named storage daemon's control plane.
type Dial func(env sim.Env, node string) (wire.Conn, error)

// ShardError is the typed partial-failure report of a group operation:
// it names the lagging shard and the daemon that owns it, so an
// operator knows exactly which member held back the commit.
type ShardError struct {
	Shard     string
	Node      string
	Iteration uint64
	Err       error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %q on %q lagging at iteration %d: %v", e.Shard, e.Node, e.Iteration, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// RouterOptions tunes a Router.
type RouterOptions struct {
	// Client is the template for every replica's Options; a nil Dialer
	// gets one wired to the replica's node, enabling per-replica
	// reconnect out of the box.
	Client Options
	// Telemetry receives the router's per-shard and group histograms.
	Telemetry *telemetry.Registry
	// Group labels the router's metrics (typically the parent model
	// name); defaults to the first registered shard's name.
	Group string
	// Replicas is the replication factor: every shard is registered on
	// its top-Replicas rendezvous owners and each checkpoint is written
	// to all of them. 0 or 1 means unreplicated (the classic tier).
	Replicas int
}

// replica is one copy of a shard: a full Client against the daemon on
// its node.
type replica struct {
	node string
	c    *Client
	// down marks a replica whose connection setup failed; it stays in
	// the list (index-stable) until a rebalance replaces it.
	down bool
}

// RouterMember is one shard's binding: the shard name, its primary
// storage node, and the live Client against that node's daemon. Under
// replication the member also carries one Client per additional
// replica; Node/C always track the current primary (promoted on
// failover).
type RouterMember struct {
	Shard string
	Node  string
	C     *Client

	replicas []*replica
	rnode    *rdma.Node
	placed   *gpu.PlacedModel
	lat      *telemetry.Histogram
	fails    *telemetry.Counter
}

// Replicas names the nodes currently holding this shard's copies.
func (m *RouterMember) Replicas() []string {
	out := make([]string, 0, len(m.replicas))
	for _, rep := range m.replicas {
		out = append(out, rep.node)
	}
	return out
}

func (m *RouterMember) findReplica(node string) *replica {
	for _, rep := range m.replicas {
		if rep.node == node {
			return rep
		}
	}
	return nil
}

// Router routes a sharded model's traffic across the storage tier.
type Router struct {
	pmap     *placement.Map
	dial     Dial
	opts     RouterOptions
	manifest *placement.Manifest
	rf       int

	mu       sync.Mutex
	members  []*RouterMember
	suspects map[string]bool

	groupLat    *telemetry.Histogram
	degraded    *telemetry.Gauge
	corruptions *telemetry.Counter
}

// NewRouter creates a router over a placement table.
func NewRouter(pmap *placement.Map, dial Dial, opts RouterOptions) *Router {
	rf := opts.Replicas
	if rf < 1 {
		rf = 1
	}
	r := &Router{
		pmap: pmap, dial: dial, opts: opts,
		manifest: placement.NewManifest(),
		rf:       rf,
		suspects: make(map[string]bool),
	}
	if reg := opts.Telemetry; reg != nil {
		r.degraded = reg.Gauge("portus_router_degraded_nodes",
			"storage nodes currently suspected dead by this router")
		r.corruptions = reg.Counter("portus_restore_corruptions_total",
			"restore attempts that hit a CRC-corrupt replica and failed over")
	}
	return r
}

// FetchPlacement asks any one daemon for the tier's placement table —
// the discovery handshake that lets a router be configured with a
// single member address.
func FetchPlacement(env sim.Env, conn wire.Conn) (*placement.Map, error) {
	m, err := wire.Call(env, conn, &wire.Msg{Type: wire.TPlacement}, wire.TPlacementResp)
	if err != nil {
		return nil, fmt.Errorf("client: PLACEMENT: %w", err)
	}
	nodes := make([]placement.Node, len(m.Placement))
	for i, p := range m.Placement {
		nodes[i] = placement.Node{Name: p.Node, CtrlAddr: p.CtrlAddr, FabricAddr: p.FabricAddr, Weight: p.Weight}
	}
	return placement.NewAtEpoch(m.Epoch, nodes...)
}

// Placement exposes the routing table.
func (r *Router) Placement() *placement.Map { return r.pmap }

// Manifest exposes the group commit record.
func (r *Router) Manifest() *placement.Manifest { return r.manifest }

// Replicas is the router's replication factor (>= 1).
func (r *Router) Replicas() int { return r.rf }

// Members lists the registered shards in registration order.
func (r *Router) Members() []*RouterMember {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*RouterMember, len(r.members))
	copy(out, r.members)
	return out
}

// Owner reports which storage node the placement table assigns a shard.
func (r *Router) Owner(shard string) string { return r.pmap.Owner(shard) }

// Suspects names the storage nodes this router currently believes
// dead, sorted by name.
func (r *Router) Suspects() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for n := range r.suspects {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Register binds one placed shard to its owner daemons: it dials each
// of the shard's top-rf rendezvous owners, runs the normal
// registration handshake there, and declares the replica set in the
// manifest. node is the compute node hosting the shard's GPU memory.
func (r *Router) Register(env sim.Env, node *rdma.Node, placed *gpu.PlacedModel) (*RouterMember, error) {
	shard := placed.Spec.Name
	owners := r.pmap.Owners(shard, r.rf)
	if len(owners) == 0 {
		return nil, fmt.Errorf("client: no placement for shard %q", shard)
	}
	m := &RouterMember{Shard: shard, rnode: node, placed: placed}
	for _, owner := range owners {
		rep, err := r.connectReplica(env, m, owner)
		if err != nil {
			return nil, err
		}
		m.replicas = append(m.replicas, rep)
	}
	m.Node, m.C = m.replicas[0].node, m.replicas[0].c
	if reg := r.opts.Telemetry; reg != nil {
		group := r.opts.Group
		if group == "" {
			group = shard
		}
		m.lat = reg.Histogram("portus_router_checkpoint_seconds",
			"per-shard checkpoint latency as seen by the router", nil,
			telemetry.L("model", group), telemetry.L("shard", shard), telemetry.L("node", m.Node))
		m.fails = reg.Counter("portus_router_shard_failures_total",
			"group operations this shard failed or lagged",
			telemetry.L("model", group), telemetry.L("shard", shard), telemetry.L("node", m.Node))
		if r.groupLat == nil {
			r.groupLat = reg.Histogram("portus_router_group_checkpoint_seconds",
				"group checkpoint latency (all shards committed)", nil,
				telemetry.L("model", group))
		}
	}
	r.manifest.AddShard(shard)
	r.manifest.SetOwners(shard, owners)
	r.mu.Lock()
	r.members = append(r.members, m)
	r.mu.Unlock()
	return m, nil
}

// connectReplica dials owner and registers the member's shard there.
func (r *Router) connectReplica(env sim.Env, m *RouterMember, owner string) (*replica, error) {
	if _, ok := r.pmap.Lookup(owner); !ok {
		return nil, fmt.Errorf("client: no placement for node %q", owner)
	}
	opts := r.opts.Client
	if opts.Telemetry == nil {
		opts.Telemetry = r.opts.Telemetry
	}
	if opts.Dialer == nil {
		owner := owner
		opts.Dialer = func(env sim.Env) (wire.Conn, error) { return r.dial(env, owner) }
	}
	conn, err := opts.Dialer(env)
	if err != nil {
		return nil, fmt.Errorf("client: dialing %s for shard %q: %w", owner, m.Shard, err)
	}
	c, err := RegisterOpts(env, conn, m.rnode, m.placed, opts)
	if err != nil {
		return nil, fmt.Errorf("client: registering shard %q on %s: %w", m.Shard, owner, err)
	}
	return &replica{node: owner, c: c}, nil
}

// isTransportErr classifies suspect-node signals: the connection died,
// a request deadline expired with the daemon silent, or the fabric has
// no route — as opposed to application errors the daemon answered
// with.
func isTransportErr(err error) bool {
	return errors.Is(err, ErrUnreachable) || errors.Is(err, wire.ErrClosed) || errors.Is(err, rdma.ErrNoRoute)
}

// gcOp is one (shard, replica) leg of a fanned group checkpoint.
type gcOp struct {
	m   *RouterMember
	rep *replica
	cp  *Completion
	err error
}

// GroupCompletion tracks one fanned-out group checkpoint.
type GroupCompletion struct {
	r     *Router
	iter  uint64
	start time.Duration
	ops   []*gcOp
	done  bool
	err   error
}

// CheckpointAsync fans DO_CHECKPOINT out to every live replica of
// every shard concurrently and returns a group handle. A send-phase
// failure on some replica is reported by Wait as a ShardError; the
// other legs proceed regardless.
func (r *Router) CheckpointAsync(env sim.Env, iteration uint64) (*GroupCompletion, error) {
	r.mu.Lock()
	if len(r.members) == 0 {
		r.mu.Unlock()
		return nil, errors.New("client: router has no registered shards")
	}
	gc := &GroupCompletion{r: r, iter: iteration, start: env.Now()}
	for _, m := range r.members {
		live := 0
		for _, rep := range m.replicas {
			if rep.down || r.suspects[rep.node] {
				continue
			}
			live++
			gc.ops = append(gc.ops, &gcOp{m: m, rep: rep})
		}
		if live == 0 {
			gc.ops = append(gc.ops, &gcOp{m: m, rep: nil,
				err: fmt.Errorf("%w: shard %q has no live replica", ErrUnreachable, m.Shard)})
		}
	}
	r.mu.Unlock()
	g := sim.NewGroup(env)
	for _, op := range gc.ops {
		if op.rep == nil {
			continue
		}
		op := op
		g.Add(env, 1)
		env.Go("portus-router-ckpt", func(env sim.Env) {
			defer g.Done(env)
			op.cp, op.err = op.rep.c.CheckpointAsync(env, iteration)
		})
	}
	g.Wait(env)
	return gc, nil
}

// Wait blocks until every replica of every shard commits the iteration
// (the group becomes restorable at it and the manifest records each
// copy), or returns a ShardError naming the first lagging leg. Copies
// that did commit are still recorded in the manifest, so a partial
// failure never un-commits the previous group iteration. Transport
// failures mark their node suspect and trigger an epoch-bump failover
// so the next checkpoint proceeds on the survivors.
func (gc *GroupCompletion) Wait(env sim.Env) error {
	if gc.done {
		return gc.err
	}
	gc.done = true
	g := sim.NewGroup(env)
	for _, op := range gc.ops {
		if op.cp == nil {
			continue
		}
		op := op
		g.Add(env, 1)
		env.Go("portus-router-wait", func(env sim.Env) {
			defer g.Done(env)
			t0 := env.Now()
			if err := op.cp.Wait(env); err != nil {
				op.err = err
				return
			}
			gc.r.manifest.DoneOn(op.m.Shard, op.rep.node, gc.iter)
			if crc := op.cp.CRC(); crc != 0 {
				gc.r.manifest.SetCRC(op.m.Shard, gc.iter, crc)
			}
			if op.m.lat != nil {
				op.m.lat.ObserveDuration(env.Now() - t0)
			}
		})
	}
	g.Wait(env)
	var suspects []string
	for _, op := range gc.ops {
		if op.err == nil {
			continue
		}
		if op.m.fails != nil {
			op.m.fails.Inc()
		}
		node := op.m.Node
		if op.rep != nil {
			node = op.rep.node
		}
		if op.rep != nil && isTransportErr(op.err) {
			suspects = append(suspects, node)
		}
		if gc.err == nil {
			gc.err = &ShardError{Shard: op.m.Shard, Node: node, Iteration: gc.iter, Err: op.err}
		}
	}
	for _, n := range suspects {
		gc.r.MarkSuspect(env, n)
	}
	if gc.err == nil && gc.r.groupLat != nil {
		gc.r.groupLat.ObserveDuration(env.Now() - gc.start)
	}
	return gc.err
}

// Done reports completion of every leg without blocking.
func (gc *GroupCompletion) Done(env sim.Env) bool {
	if gc.done {
		return true
	}
	for _, op := range gc.ops {
		if op.err != nil {
			continue
		}
		if op.cp == nil || !op.cp.Done(env) {
			return false
		}
	}
	return true
}

// CheckpointSync is CheckpointAsync + Wait.
func (r *Router) CheckpointSync(env sim.Env, iteration uint64) error {
	gc, err := r.CheckpointAsync(env, iteration)
	if err != nil {
		return err
	}
	return gc.Wait(env)
}

// MarkSuspect declares a storage node dead: its manifest copies are
// dropped (the data is presumed lost), it is removed from the
// placement membership (an epoch bump re-placing every shard over the
// survivors), and missing replicas are re-registered and anti-entropy
// rebuilt so checkpoints continue — degraded — with no committed
// iteration lost. Idempotent.
func (r *Router) MarkSuspect(env sim.Env, node string) {
	r.mu.Lock()
	if r.suspects[node] {
		r.mu.Unlock()
		return
	}
	r.suspects[node] = true
	n := len(r.suspects)
	r.mu.Unlock()
	if r.degraded != nil {
		r.degraded.Set(int64(n))
	}
	r.manifest.DropNode(node)
	var survivors []placement.Node
	r.mu.Lock()
	for _, pn := range r.pmap.Nodes() {
		if !r.suspects[pn.Name] {
			survivors = append(survivors, pn)
		}
	}
	r.mu.Unlock()
	if len(survivors) > 0 && len(survivors) < r.pmap.Len() {
		_ = r.pmap.Update(survivors)
	}
	r.rebalance(env)
}

// Join (re-)admits a storage node: it enters the placement map (an
// epoch bump), every shard is re-placed at the new epoch, and copies
// the node now owns are rebuilt from its peers by anti-entropy
// re-replication. The node's daemon must already be serving.
func (r *Router) Join(env sim.Env, n placement.Node) error {
	r.mu.Lock()
	delete(r.suspects, n.Name)
	cnt := len(r.suspects)
	// Replica clients that pointed at the dead incarnation are stale —
	// mark them down so rebalance dials the replacement daemon fresh.
	for _, m := range r.members {
		if rep := m.findReplica(n.Name); rep != nil {
			rep.down = true
			if rep.c != nil {
				rep.c.Close()
			}
		}
	}
	r.mu.Unlock()
	if r.degraded != nil {
		r.degraded.Set(int64(cnt))
	}
	nodes := r.pmap.Nodes()
	found := false
	for i := range nodes {
		if nodes[i].Name == n.Name {
			nodes[i] = n
			found = true
		}
	}
	if !found {
		nodes = append(nodes, n)
	}
	if err := r.pmap.Update(nodes); err != nil {
		return fmt.Errorf("client: join %s: %w", n.Name, err)
	}
	return r.rebalance(env)
}

// rebalance re-places every shard at the current placement epoch:
// owner sets are re-declared in the manifest, replicas missing from
// the new owner sets are registered, a dead primary is demoted in
// favor of the first live replica, and owner copies lagging the
// group-committed iteration are rebuilt from a healthy holder
// (anti-entropy). Connection failures leave the shard degraded rather
// than failing the rebalance; the error returned is the first rebuild
// failure, if any.
func (r *Router) rebalance(env sim.Env) error {
	target := r.manifest.Committed()
	var firstErr error
	r.mu.Lock()
	members := make([]*RouterMember, len(r.members))
	copy(members, r.members)
	r.mu.Unlock()
	for _, m := range members {
		owners := r.pmap.Owners(m.Shard, r.rf)
		r.manifest.SetOwners(m.Shard, owners)
		for _, owner := range owners {
			r.mu.Lock()
			rep := m.findReplica(owner)
			suspect := r.suspects[owner]
			r.mu.Unlock()
			if suspect {
				continue
			}
			if rep != nil && !rep.down {
				continue
			}
			nrep, err := r.connectReplica(env, m, owner)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			r.mu.Lock()
			if rep != nil {
				rep.c, rep.down = nrep.c, false
			} else {
				m.replicas = append(m.replicas, nrep)
			}
			r.mu.Unlock()
		}
		// Prune replicas the new epoch no longer assigns this shard —
		// an epoch bump re-places shards, it doesn't accumulate copies —
		// and re-point the primary at a live owner.
		ownerSet := make(map[string]bool, len(owners))
		for _, o := range owners {
			ownerSet[o] = true
		}
		r.mu.Lock()
		kept := m.replicas[:0]
		for _, rep := range m.replicas {
			if ownerSet[rep.node] {
				kept = append(kept, rep)
			} else if rep.c != nil {
				rep.c.Close()
			}
		}
		m.replicas = kept
		if !ownerSet[m.Node] || r.suspects[m.Node] {
			for _, rep := range m.replicas {
				if !rep.down && !r.suspects[rep.node] {
					m.Node, m.C = rep.node, rep.c
					break
				}
			}
		}
		r.mu.Unlock()
		if target != 0 {
			if err := r.antiEntropyShard(env, m, target); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// AntiEntropy rebuilds every owner copy lagging the group-committed
// iteration from a healthy holder of that iteration. No-op when
// nothing has committed yet.
func (r *Router) AntiEntropy(env sim.Env) error {
	target := r.manifest.Committed()
	if target == 0 {
		return nil
	}
	var firstErr error
	for _, m := range r.Members() {
		if err := r.antiEntropyShard(env, m, target); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// antiEntropyShard copies shard m's committed iteration from a holder
// to every live owner replica that lacks it: DUMP from the source
// (pinned to the iteration), LOAD into the laggard, CRC verified at
// both ends.
func (r *Router) antiEntropyShard(env sim.Env, m *RouterMember, target uint64) error {
	holders := make(map[string]bool)
	for _, n := range r.manifest.HoldersOf(m.Shard, target) {
		holders[n] = true
	}
	owners := make(map[string]bool)
	for _, n := range r.manifest.Owners(m.Shard) {
		owners[n] = true
	}
	var src string
	r.mu.Lock()
	for _, rep := range m.replicas {
		if !rep.down && !r.suspects[rep.node] && holders[rep.node] {
			src = rep.node
			break
		}
	}
	// Only owner copies are rebuilt: pushing a shard onto a node the
	// current epoch doesn't assign it would be refused as misplaced.
	var laggards []string
	for _, rep := range m.replicas {
		if !rep.down && !r.suspects[rep.node] && owners[rep.node] && !holders[rep.node] {
			laggards = append(laggards, rep.node)
		}
	}
	r.mu.Unlock()
	if len(laggards) == 0 {
		return nil
	}
	if src == "" {
		return fmt.Errorf("client: anti-entropy: no healthy holder of iteration %d for shard %q", target, m.Shard)
	}
	payload, crc, err := r.dumpShard(env, src, m.Shard, target)
	if err != nil {
		return err
	}
	var firstErr error
	for _, node := range laggards {
		if err := r.loadShard(env, node, m.Shard, target, payload, crc); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.manifest.DoneOn(m.Shard, node, target)
		if crc != 0 {
			r.manifest.SetCRC(m.Shard, target, crc)
		}
	}
	return firstErr
}

// dumpShard archives one shard's pinned iteration from node.
func (r *Router) dumpShard(env sim.Env, node, shard string, iter uint64) ([]byte, uint64, error) {
	conn, err := r.dial(env, node)
	if err != nil {
		return nil, 0, fmt.Errorf("client: anti-entropy: dialing %s: %w", node, err)
	}
	defer conn.Close()
	resp, err := wire.Call(env, conn, &wire.Msg{Type: wire.TDump, Model: shard, Iteration: iter}, wire.TDumpResp)
	if err != nil {
		return nil, 0, fmt.Errorf("client: anti-entropy: DUMP from %s: %w", node, err)
	}
	return resp.Payload, resp.CRC, nil
}

// loadShard installs an archived shard iteration on node.
func (r *Router) loadShard(env sim.Env, node, shard string, iter uint64, payload []byte, crc uint64) error {
	conn, err := r.dial(env, node)
	if err != nil {
		return fmt.Errorf("client: anti-entropy: dialing %s: %w", node, err)
	}
	defer conn.Close()
	if _, err := wire.Call(env, conn, &wire.Msg{Type: wire.TLoad, Model: shard, Iteration: iter, Payload: payload, CRC: crc}, wire.TLoadOK); err != nil {
		return fmt.Errorf("client: anti-entropy: LOAD to %s: %w", node, err)
	}
	return nil
}

// Restore stripes the group-committed iteration back concurrently,
// each shard served from the healthiest replica holding it. With an
// empty manifest (a fresh router after a failure) it first rebuilds
// the manifest from the daemons' LIST responses. A replica failing its
// CRC integrity check is counted in portus_restore_corruptions_total
// and the restore fails over to the next holder; transport failures
// mark the node suspect and fail over likewise. Returns the restored
// iteration.
func (r *Router) Restore(env sim.Env) (uint64, error) {
	members := r.Members()
	if len(members) == 0 {
		return 0, errors.New("client: router has no registered shards")
	}
	target := r.manifest.Committed()
	if target == 0 {
		if err := r.SyncManifest(env); err != nil {
			return 0, err
		}
		target = r.manifest.Committed()
	}
	if target == 0 {
		return 0, fmt.Errorf("%w: no group-committed iteration", ErrNoCheckpoint)
	}
	g := sim.NewGroup(env)
	errs := make([]error, len(members))
	nodes := make([]string, len(members))
	for i, m := range members {
		i, m := i, m
		nodes[i] = m.Node
		g.Add(env, 1)
		env.Go("portus-router-restore", func(env sim.Env) {
			defer g.Done(env)
			nodes[i], errs[i] = r.restoreShard(env, m, target)
		})
	}
	g.Wait(env)
	for i, m := range members {
		if errs[i] != nil {
			if m.fails != nil {
				m.fails.Inc()
			}
			return 0, &ShardError{Shard: m.Shard, Node: nodes[i], Iteration: target, Err: errs[i]}
		}
	}
	return target, nil
}

// restoreShard serves one shard's pinned restore, failing over across
// replicas: known holders of the iteration first, then the remaining
// live replicas. Returns the node that served it.
func (r *Router) restoreShard(env sim.Env, m *RouterMember, target uint64) (string, error) {
	holders := make(map[string]bool)
	for _, n := range r.manifest.HoldersOf(m.Shard, target) {
		holders[n] = true
	}
	r.mu.Lock()
	var candidates []*replica
	for _, rep := range m.replicas {
		if !rep.down && !r.suspects[rep.node] && holders[rep.node] {
			candidates = append(candidates, rep)
		}
	}
	for _, rep := range m.replicas {
		if !rep.down && !r.suspects[rep.node] && !holders[rep.node] {
			candidates = append(candidates, rep)
		}
	}
	r.mu.Unlock()
	if len(candidates) == 0 {
		return m.Node, fmt.Errorf("%w: shard %q has no live replica", ErrUnreachable, m.Shard)
	}
	var lastNode string
	var lastErr error
	for _, rep := range candidates {
		_, err := rep.c.RestoreAt(env, target)
		if err == nil {
			return rep.node, nil
		}
		lastNode, lastErr = rep.node, err
		switch {
		case errors.Is(err, ErrCorruptReplica):
			if r.corruptions != nil {
				r.corruptions.Inc()
			}
		case errors.Is(err, ErrNoCheckpoint):
			// This copy lags the manifest (e.g. a freshly rebuilt
			// replica racing anti-entropy); try the next holder.
		case isTransportErr(err):
			r.MarkSuspect(env, rep.node)
		default:
			return rep.node, err
		}
	}
	return lastNode, lastErr
}

// SyncManifest rebuilds the manifest from the daemons' LIST responses:
// each replica copy's recent-done window (and its CRC stamps) is
// reconstructed from the version slots its daemon reports. This is how
// a restarted router learns what is restorable without any client-side
// persistence. Under replication an unreachable node is marked suspect
// and skipped; unreplicated routers keep the strict error.
func (r *Router) SyncManifest(env sim.Env) error {
	byNode := make(map[string][]*RouterMember)
	for _, m := range r.Members() {
		r.mu.Lock()
		reps := append([]*replica(nil), m.replicas...)
		r.mu.Unlock()
		for _, rep := range reps {
			if rep.down {
				continue
			}
			byNode[rep.node] = append(byNode[rep.node], m)
		}
	}
	var nodes []string
	for node := range byNode {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		r.mu.Lock()
		suspect := r.suspects[node]
		r.mu.Unlock()
		if suspect {
			continue
		}
		infos, err := r.listNode(env, node)
		if err != nil {
			if r.rf > 1 {
				r.MarkSuspect(env, node)
				continue
			}
			return err
		}
		for _, m := range byNode[node] {
			if mi, ok := infos[m.Shard]; ok {
				r.manifest.ObserveOn(m.Shard, node, mi.Slot0Iter, mi.Slot1Iter)
				r.manifest.SetCRC(m.Shard, mi.Slot0Iter, mi.Slot0CRC)
				r.manifest.SetCRC(m.Shard, mi.Slot1Iter, mi.Slot1CRC)
			}
		}
	}
	return nil
}

// listNode runs one LIST exchange against node.
func (r *Router) listNode(env sim.Env, node string) (map[string]wire.ModelInfo, error) {
	conn, err := r.dial(env, node)
	if err != nil {
		return nil, fmt.Errorf("client: manifest sync: dialing %s: %w", node, err)
	}
	defer conn.Close()
	resp, err := wire.Call(env, conn, &wire.Msg{Type: wire.TList}, wire.TListResp)
	if err != nil {
		return nil, fmt.Errorf("client: manifest sync: LIST on %s: %w", node, err)
	}
	infos := make(map[string]wire.ModelInfo, len(resp.Models))
	for _, mi := range resp.Models {
		infos[mi.Name] = mi
	}
	return infos, nil
}

// Close tears down every replica client.
func (r *Router) Close() error {
	var first error
	for _, m := range r.Members() {
		for _, rep := range m.replicas {
			if rep.c == nil {
				continue
			}
			if err := rep.c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
