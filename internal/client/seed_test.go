package client_test

import (
	"errors"
	"slices"
	"testing"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/faults"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// seedBlock is the digest block of the seeding tests: several blocks
// per large tensor of the tiny model.
const seedBlock = 4 << 10

// pushHook is a daemon's fabric with hooks on the one-sided WRITEs it
// issues, which are a restore's push chunks: before runs ahead of the
// n-th (1-based), and the landTwice-th lands and then reports failure,
// as a completion lost after the DMA did, so the engine writes that
// chunk again.
type pushHook struct {
	rdma.Fabric
	writes    int
	before    func(n int)
	landTwice int
}

func (f *pushHook) Write(env sim.Env, local *rdma.Node, l rdma.Slice, r rdma.RemoteSlice) error {
	f.writes++
	if f.before != nil {
		f.before(f.writes)
	}
	err := f.Fabric.Write(env, local, l, r)
	if err == nil && f.writes == f.landTwice {
		return errors.New("completion lost after the write landed")
	}
	return err
}

// restoreSeeded scrambles placed, restores it through c, and requires
// the restore byte-identical to want (a BlockDigests vector), unless
// want is nil. It
// reports whether the restore seeded the digest cache: with nothing
// written since, a seeded cache hashes no block, and an unseeded one
// hashes every block the push wrote. Either way the cache must equal
// the from-scratch reference.
func restoreSeeded(t *testing.T, env sim.Env, c *client.Client, placed *gpu.PlacedModel, want []uint64) bool {
	t.Helper()
	placed.ApplyUpdate(1 << 20)
	placed.Digests(seedBlock) // the cache now holds the scrambled weights
	if _, err := c.Restore(env); err != nil {
		t.Fatal(err)
	}
	return checkSeed(t, placed, want)
}

// checkSeed is restoreSeeded's verdict on one restored model.
func checkSeed(t *testing.T, placed *gpu.PlacedModel, want []uint64) bool {
	t.Helper()
	if bad := placed.VerifyDigests(seedBlock, want); want != nil && bad != -1 {
		t.Fatalf("%s: block %d not byte-identical after the restore", placed.Spec.Name, bad)
	}
	got, pass := placed.Digests(seedBlock)
	if !slices.Equal(got, placed.BlockDigests(seedBlock)) {
		t.Fatalf("%s: cached digests differ from BlockDigests after the restore", placed.Spec.Name)
	}
	switch pass.Hashed {
	case 0:
		return true
	case pass.Blocks:
		return false
	}
	t.Fatalf("%s: the first pass after a restore hashed %d of %d blocks, want none or all", placed.Spec.Name, pass.Hashed, pass.Blocks)
	return false
}

// TestRestoreSeedGuards: a restore seeds the client's digest cache from
// the table RESTORE_DONE carries exactly when the GPU took one model's
// worth of writes in the restore's window. A chunk whose verb faulted
// before it was issued is written once, so the seed stands; a chunk that
// landed twice, or a stray write to the model inside the window, defeats
// it. Seeded or not, the cache equals BlockDigests, the next checkpoint
// commits as a delta, and a restore of it is byte-identical.
func TestRestoreSeedGuards(t *testing.T) {
	cases := []struct {
		name   string
		faults faults.Config
		arm    func(h *pushHook, placed *gpu.PlacedModel)
		seeded bool
		stray  bool // the restored model is not the checkpoint's bytes
	}{
		{name: "clean push", seeded: true},
		{name: "faulted verb is retried", faults: faults.Config{Seed: 1, Write: faults.Rule{From: 2, To: 2}}, seeded: true},
		{name: "chunk landed twice", arm: func(h *pushHook, _ *gpu.PlacedModel) { h.landTwice = 2 }},
		{name: "stray write inside the window", arm: func(h *pushHook, placed *gpu.PlacedModel) {
			h.before = func(n int) {
				if n == 2 { // the first chunk has landed
					mem := placed.GPU.Mem()
					mem.Write(placed.Offs[0], []byte{^mem.Bytes(placed.Offs[0], 1)[0]})
				}
			}
		}, stray: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			eng.Go("test", func(env sim.Env) {
				cl, err := cluster.New(env, cluster.Config{
					ComputeNodes: 1, GPUsPerNode: 1, GPUMemBytes: 8 << 20, PMemBytes: 16 << 20, Materialized: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				hook := &pushHook{Fabric: cl.Fabric}
				inj := faults.NewInjector(tc.faults)
				d, err := daemon.New(env, daemon.Config{
					PMem: cl.Storage[0].PMem, RNode: cl.Storage[0].RNode, Fabric: inj.Fabric(hook), DeltaEnabled: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				net := wire.NewSimNet()
				l, err := net.Listen(env, "storage")
				if err != nil {
					t.Fatal(err)
				}
				env.Go("serve", func(env sim.Env) { d.Serve(env, l) })
				placed, err := gpu.Place(cl.GPU(0, 0), tinySpec("m"))
				if err != nil {
					t.Fatal(err)
				}
				conn, err := net.Dial(env, "storage")
				if err != nil {
					t.Fatal(err)
				}
				c, err := client.RegisterOpts(env, conn, cl.Compute[0].RNode, placed, client.Options{DeltaBlockBytes: seedBlock})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				for it := uint64(1); it <= 2; it++ {
					placed.ApplySparseUpdate(it, seedBlock, 0.1)
					if err := c.CheckpointSync(env, it); err != nil {
						t.Fatal(err)
					}
				}
				if tc.arm != nil {
					tc.arm(hook, placed)
				}
				want := placed.BlockDigests(seedBlock)
				if tc.stray {
					want = nil
				}
				if got := restoreSeeded(t, env, c, placed, want); got != tc.seeded {
					t.Fatalf("restore seeded the digest cache: %v, want %v", got, tc.seeded)
				}
				if tc.faults.Write.To != 0 && inj.Injected(faults.SiteWrite) != 1 {
					t.Fatalf("%d push verbs faulted, want 1", inj.Injected(faults.SiteWrite))
				}
				hook.before, hook.landTwice = nil, 0

				plans := d.Events().Count(telemetry.EvDeltaPlan)
				placed.ApplySparseUpdate(3, seedBlock, 0.1)
				want = placed.BlockDigests(seedBlock)
				if err := c.CheckpointSync(env, 3); err != nil {
					t.Fatal(err)
				}
				if d.Events().Count(telemetry.EvDeltaPlan) != plans+1 {
					t.Fatal("the checkpoint after the restore was not planned as a delta")
				}
				if !restoreSeeded(t, env, c, placed, want) {
					t.Fatal("a clean restore of the post-restore checkpoint did not seed")
				}
			})
			eng.Run()
		})
	}
}

// TestRouterRestoreSeedsFromTheHolderThatFinished: a replicated restore
// whose first holder dies mid-push, after writing part of a shard, fails
// over to the second holder. The dead holder's restore seeds nothing;
// the survivor's push is the only writer in its own window, so its table
// seeds the cache, and every shard comes back byte-identical with a
// cache equal to BlockDigests.
func TestRouterRestoreSeedsFromTheHolderThatFinished(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		var h *tierHarness
		var victim string
		h = startTier(t, env, 4, func(node string, dcfg *daemon.Config) {
			dcfg.Replicas, dcfg.DeltaEnabled = 2, true
			dcfg.Fabric = &pushHook{Fabric: dcfg.Fabric, before: func(n int) {
				if n == 2 && victim == "" {
					victim = node
					h.cl.Fabric.CutNode(node)
					env.Go("kill", func(env sim.Env) { h.killNode(env, node) })
				}
			}}
		})
		r := client.NewRouter(h.pmap, h.dial, client.RouterOptions{
			Replicas: 2, Client: client.Options{DeltaBlockBytes: seedBlock},
		})
		defer r.Close()
		placed := h.placeTiny(t, env, r, "seed-failover")
		for it := uint64(1); it <= 2; it++ {
			for _, p := range placed {
				p.ApplySparseUpdate(it, seedBlock, 0.1)
			}
			if err := r.CheckpointSync(env, it); err != nil {
				t.Fatal(err)
			}
		}
		var wants [][]uint64
		for _, p := range placed {
			wants = append(wants, p.BlockDigests(seedBlock))
			p.ApplyUpdate(1 << 20)
			p.Digests(seedBlock)
		}
		if iter, err := r.Restore(env); err != nil || iter != 2 {
			t.Fatalf("restore = iteration %d, %v; want 2", iter, err)
		}
		if victim == "" {
			t.Fatal("no holder was killed mid-push")
		}
		for i, p := range placed {
			if !checkSeed(t, p, wants[i]) {
				t.Fatalf("shard %s: the surviving holder's restore did not seed", p.Spec.Name)
			}
		}
	})
	eng.Run()
}
