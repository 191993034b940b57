package client_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/parallel"
	"github.com/portus-sys/portus/internal/placement"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/wire"
)

// tierHarness is a multi-daemon storage tier: one daemon per storage
// node, all sharing one placement map, each listening on its node name.
type tierHarness struct {
	cl      *cluster.Cluster
	pmap    *placement.Map
	daemons map[string]*daemon.Daemon
	net     *wire.SimNet
}

func startTier(t *testing.T, env sim.Env, storageNodes int, dmut func(node string, dcfg *daemon.Config)) *tierHarness {
	t.Helper()
	cl, err := cluster.New(env, cluster.Config{
		ComputeNodes: 2,
		GPUsPerNode:  2,
		GPUMemBytes:  16 << 20,
		StorageNodes: storageNodes,
		PMemBytes:    32 << 20,
		Materialized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]placement.Node, len(cl.Storage))
	for i, st := range cl.Storage {
		nodes[i] = placement.Node{Name: st.Name, Weight: st.PMem.DataSize()}
	}
	pmap, err := placement.New(nodes...)
	if err != nil {
		t.Fatal(err)
	}
	h := &tierHarness{cl: cl, pmap: pmap, daemons: map[string]*daemon.Daemon{}, net: wire.NewSimNet()}
	for _, st := range cl.Storage {
		dcfg := daemon.Config{
			PMem:     st.PMem,
			RNode:    st.RNode,
			Fabric:   cl.Fabric,
			NodeName: st.Name,
			Group:    pmap,
		}
		if dmut != nil {
			dmut(st.Name, &dcfg)
		}
		d, err := daemon.New(env, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		l, err := h.net.Listen(env, st.Name)
		if err != nil {
			t.Fatal(err)
		}
		env.Go("portusd-"+st.Name, func(env sim.Env) { d.Serve(env, l) })
		h.daemons[st.Name] = d
	}
	return h
}

func (h *tierHarness) dial(env sim.Env, node string) (wire.Conn, error) {
	return h.net.Dial(env, node)
}

// placeTiny partitions a tiny model 2x2 and registers all four shards
// through the router, returning the placed shards in placement order.
func (h *tierHarness) placeTiny(t *testing.T, env sim.Env, r *client.Router, name string) []*gpu.PlacedModel {
	t.Helper()
	shards, err := parallel.Partition(tinySpec(name), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	placements, err := parallel.Place(shards, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	placed := make([]*gpu.PlacedModel, len(placements))
	for i, pl := range placements {
		p, err := gpu.Place(h.cl.GPU(pl.Node, pl.GPU), pl.Shard.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Register(env, h.cl.Compute[pl.Node].RNode, p); err != nil {
			t.Fatal(err)
		}
		placed[i] = p
	}
	return placed
}

func applyAll(placed []*gpu.PlacedModel, iter uint64) {
	for _, p := range placed {
		p.ApplyUpdate(iter)
	}
}

func verifyAll(t *testing.T, placed []*gpu.PlacedModel, iter uint64) {
	t.Helper()
	for i, p := range placed {
		if bad := p.VerifyIteration(iter); bad != -1 {
			t.Fatalf("shard %d (%s) tensor %d wrong after restoring iteration %d", i, p.Spec.Name, bad, iter)
		}
	}
}

// TestRouterShardedCheckpointRestore drives the whole sharded datapath:
// four shards registered across two daemons by placement, group
// checkpoints fanned out, and a striped restore of the group-committed
// iteration.
func TestRouterShardedCheckpointRestore(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		h := startTier(t, env, 2, nil)
		r := client.NewRouter(h.pmap, h.dial, client.RouterOptions{})
		defer r.Close()
		placed := h.placeTiny(t, env, r, "routed")

		// Placement must actually use both members, or this test would
		// silently degrade to the single-daemon path.
		byNode := map[string]int{}
		for _, m := range r.Members() {
			byNode[m.Node]++
		}
		if len(byNode) != 2 {
			t.Fatalf("4 shards placed on %d storage nodes (%v), want 2", len(byNode), byNode)
		}

		for iter := uint64(1); iter <= 3; iter++ {
			applyAll(placed, iter)
			if err := r.CheckpointSync(env, iter); err != nil {
				t.Fatal(err)
			}
			if got := r.Manifest().Committed(); got != iter {
				t.Fatalf("after iteration %d, manifest commits %d", iter, got)
			}
		}

		applyAll(placed, 99) // weights move on
		iter, err := r.Restore(env)
		if err != nil {
			t.Fatal(err)
		}
		if iter != 3 {
			t.Fatalf("restored iteration %d, want 3", iter)
		}
		verifyAll(t, placed, 3)

		// Both daemons did real work.
		for node, d := range h.daemons {
			st := d.Stats()
			if st.Checkpoints == 0 || st.Restores == 0 {
				t.Fatalf("daemon %s stats = %+v, want checkpoints and restores", node, st)
			}
		}
	})
	eng.Run()
}

// TestRouterKillMidCheckpointKeepsCommittedIteration is the tier's
// crash-consistency acceptance test: killing one shard's daemon mid
// group checkpoint must (a) surface a typed ShardError naming the
// lagging shard and its node, (b) leave the manifest at the previous
// group-committed iteration, and (c) keep that iteration fully
// restorable — zero committed checkpoints lost.
func TestRouterKillMidCheckpointKeepsCommittedIteration(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		// Every daemon gets a kill switch wired into its PMem flush
		// stage; flipping one simulates that node dying mid-checkpoint
		// (its in-flight flush errors and keeps erroring).
		kills := map[string]*atomic.Bool{}
		h := startTier(t, env, 2, func(node string, dcfg *daemon.Config) {
			sw := &atomic.Bool{}
			kills[node] = sw
			pm := dcfg.PMem
			dcfg.Flush = func(off, n int64, crc *uint32) error {
				if sw.Load() {
					return errors.New("injected: storage node down")
				}
				pm.FlushDataCRC(off, n, crc)
				return nil
			}
		})
		r := client.NewRouter(h.pmap, h.dial, client.RouterOptions{})
		defer r.Close()
		placed := h.placeTiny(t, env, r, "killed")

		for iter := uint64(1); iter <= 2; iter++ {
			applyAll(placed, iter)
			if err := r.CheckpointSync(env, iter); err != nil {
				t.Fatal(err)
			}
		}

		victim := r.Members()[0].Node
		kills[victim].Store(true)
		applyAll(placed, 3)
		err := r.CheckpointSync(env, 3)
		if err == nil {
			t.Fatal("group checkpoint succeeded with a dead member")
		}
		var se *client.ShardError
		if !errors.As(err, &se) {
			t.Fatalf("error %T (%v), want *client.ShardError", err, err)
		}
		if se.Node != victim || se.Iteration != 3 {
			t.Fatalf("ShardError names %s iteration %d, want %s iteration 3", se.Node, se.Iteration, victim)
		}
		if r.Owner(se.Shard) != victim {
			t.Fatalf("ShardError names shard %q, which %s does not own", se.Shard, victim)
		}
		if got := r.Manifest().Committed(); got != 2 {
			t.Fatalf("manifest commits %d after partial failure, want 2", got)
		}
		if lag := r.Manifest().Lagging(3); len(lag) == 0 {
			t.Fatal("manifest reports no lagging shard for iteration 3")
		}

		// The previous group iteration restores in full, striped across
		// the survivor and the "dead" node (restores read, not flush).
		applyAll(placed, 99)
		iter, err := r.Restore(env)
		if err != nil {
			t.Fatal(err)
		}
		if iter != 2 {
			t.Fatalf("restored iteration %d, want 2", iter)
		}
		verifyAll(t, placed, 2)
	})
	eng.Run()
}

// TestRouterFetchPlacementDiscovery checks the wire handshake: a client
// configured with a single member address discovers the full table and
// routes through it.
func TestRouterFetchPlacementDiscovery(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		h := startTier(t, env, 2, nil)
		conn, err := h.net.Dial(env, "storage1")
		if err != nil {
			t.Fatal(err)
		}
		pmap, err := client.FetchPlacement(env, conn)
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if pmap.Len() != 2 || pmap.Epoch() != h.pmap.Epoch() {
			t.Fatalf("fetched table has %d nodes at epoch %d, want 2 at %d", pmap.Len(), pmap.Epoch(), h.pmap.Epoch())
		}
		for _, key := range []string{"a", "b", "model/mp_rank_00_pp_00"} {
			if got, want := pmap.Owner(key), h.pmap.Owner(key); got != want {
				t.Fatalf("fetched table routes %q to %s, daemon's routes to %s", key, got, want)
			}
		}

		r := client.NewRouter(pmap, h.dial, client.RouterOptions{})
		defer r.Close()
		placed := h.placeTiny(t, env, r, "discovered")
		applyAll(placed, 1)
		if err := r.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
}

// TestRouterSyncManifestAfterRestart proves a restarted training job
// can find the group-committed iteration with no client-side state: a
// fresh router rebuilds the manifest from the daemons' LIST responses.
func TestRouterSyncManifestAfterRestart(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		h := startTier(t, env, 2, nil)
		r := client.NewRouter(h.pmap, h.dial, client.RouterOptions{})
		placed := h.placeTiny(t, env, r, "restarted")
		for iter := uint64(1); iter <= 2; iter++ {
			applyAll(placed, iter)
			if err := r.CheckpointSync(env, iter); err != nil {
				t.Fatal(err)
			}
		}
		r.Close()

		// "Restart": a brand-new router over the same tier, re-registering
		// the same shards, with an empty manifest.
		r2 := client.NewRouter(h.pmap, h.dial, client.RouterOptions{})
		defer r2.Close()
		shards, err := parallel.Partition(tinySpec("restarted"), 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		placements, err := parallel.Place(shards, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, pl := range placements {
			if _, err := r2.Register(env, h.cl.Compute[pl.Node].RNode, placed[i]); err != nil {
				t.Fatal(err)
			}
		}
		if got := r2.Manifest().Committed(); got != 0 {
			t.Fatalf("fresh router's manifest commits %d before sync", got)
		}
		applyAll(placed, 99)
		iter, err := r2.Restore(env)
		if err != nil {
			t.Fatal(err)
		}
		if iter != 2 {
			t.Fatalf("restored iteration %d after restart, want 2", iter)
		}
		verifyAll(t, placed, 2)
	})
	eng.Run()
}

// TestRouterRefusesMisplacedShard checks daemons enforce the placement
// map: registering a model with a daemon that does not own it fails
// with the owner named.
func TestRouterRefusesMisplacedShard(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		h := startTier(t, env, 2, nil)
		spec := tinySpec("misplaced")
		wrong := cluster.StorageNodeName(0)
		if h.pmap.Owner(spec.Name) == wrong {
			wrong = cluster.StorageNodeName(1)
		}
		placed, err := gpu.Place(h.cl.GPU(0, 0), spec)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := h.net.Dial(env, wrong)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := client.Register(env, conn, h.cl.Compute[0].RNode, placed); err == nil {
			t.Fatal("daemon accepted a model the placement map assigns elsewhere")
		}
	})
	eng.Run()
}

// TestRestoreAtPinnedIteration checks the exact-iteration restore the
// router's striped recovery rides on: either DONE slot is addressable
// by iteration, anything else fails loudly.
func TestRestoreAtPinnedIteration(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		h := startHarness(t, env, true, nil)
		placed, err := gpu.Place(h.cl.GPU(0, 0), tinySpec("pinned"))
		if err != nil {
			t.Fatal(err)
		}
		c := h.connect(t, env, 0, placed)
		for iter := uint64(5); iter <= 6; iter++ {
			placed.ApplyUpdate(iter)
			if err := c.CheckpointSync(env, iter); err != nil {
				t.Fatal(err)
			}
		}

		// Both resident versions restore by exact iteration, not just
		// the newest.
		for _, want := range []uint64{5, 6, 5} {
			placed.ApplyUpdate(99)
			iter, err := c.RestoreAt(env, want)
			if err != nil {
				t.Fatal(err)
			}
			if iter != want {
				t.Fatalf("RestoreAt(%d) restored %d", want, iter)
			}
			if bad := placed.VerifyIteration(want); bad != -1 {
				t.Fatalf("tensor %d wrong after RestoreAt(%d)", bad, want)
			}
		}

		// Iteration 4 was evicted by the double-mapped slot rotation.
		if _, err := c.RestoreAt(env, 4); err == nil {
			t.Fatal("RestoreAt(4) succeeded for an evicted iteration")
		}
		if _, err := c.RestoreAt(env, 0); err == nil {
			t.Fatal("RestoreAt(0) succeeded; 0 must be rejected")
		}
	})
	eng.Run()
}
