package daemon_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// deltaBlock is small relative to the test model (~371 KiB over 28
// tensors) so sparse updates genuinely leave most blocks clean.
const deltaBlock = int64(4 << 10)

// deltaRig wires a delta-enabled daemon and a digest-computing client
// around one small model, returning the PMem device for crash
// inspection.
func deltaRig(t *testing.T, env sim.Env, dmut func(*daemon.Config)) (*daemon.Daemon, *gpu.PlacedModel, *client.Client, *pmem.Device) {
	t.Helper()
	cl, err := cluster.New(env, cluster.Config{
		ComputeNodes: 1, GPUsPerNode: 1,
		GPUMemBytes: 8 << 20, PMemBytes: 16 << 20, Materialized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := daemon.Config{
		PMem: cl.Storage[0].PMem, RNode: cl.Storage[0].RNode, Fabric: cl.Fabric,
		DeltaEnabled: true,
	}
	if dmut != nil {
		dmut(&cfg)
	}
	d, err := daemon.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := wire.NewSimNet()
	l, err := net.Listen(env, "storage")
	if err != nil {
		t.Fatal(err)
	}
	env.Go("serve", func(env sim.Env) { d.Serve(env, l) })

	placed, err := gpu.Place(cl.GPU(0, 0), model.GPT("m", 2, 32, 128, 0))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial(env, "storage")
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.RegisterOpts(env, conn, cl.Compute[0].RNode, placed,
		client.Options{DeltaBlockBytes: deltaBlock})
	if err != nil {
		t.Fatal(err)
	}
	return d, placed, c, cl.Storage[0].PMem
}

func fallbacks(d *daemon.Daemon) int64 {
	return int64(d.Events().Count(telemetry.EvDeltaFallback))
}

// TestDeltaCheckpointReducesFabricBytes is the incremental path end to
// end. The first checkpoint bootstraps the digest table (full, not a
// fallback); the second still runs full because the target slot has no
// skip oracle yet (counted as a fallback); from the third on, sparse
// updates pull only the dirty blocks. Every version restores
// byte-identical, and a dense update falls back to full.
func TestDeltaCheckpointReducesFabricBytes(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, placed, c, _ := deltaRig(t, env, nil)
		total := placed.Spec.TotalSize()

		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		if got := d.Stats().BytesPulled; got != total {
			t.Fatalf("bootstrap pulled %d bytes, want full %d", got, total)
		}
		if n := fallbacks(d); n != 0 {
			t.Fatalf("bootstrap counted %d fallbacks", n)
		}

		// Second checkpoint: the previous version's table is trusted, but
		// with no target-slot table nothing can skip, so pull+copy would
		// cost a full pass — fallback, by the byte-accounting rule.
		placed.ApplySparseUpdate(2, deltaBlock, 0.05)
		if err := c.CheckpointSync(env, 2); err != nil {
			t.Fatal(err)
		}
		if got := d.Stats().BytesPulled; got != 2*total {
			t.Fatalf("warmup pulled %d bytes, want 2×%d", got, total)
		}
		if n := fallbacks(d); n != 1 {
			t.Fatalf("warmup counted %d fallbacks, want 1", n)
		}

		// Third checkpoint: both slots now carry trusted tables; only the
		// blocks dirtied since the previous version cross the fabric.
		placed.ApplySparseUpdate(3, deltaBlock, 0.05)
		want3 := placed.BlockDigests(deltaBlock)
		if err := c.CheckpointSync(env, 3); err != nil {
			t.Fatal(err)
		}
		pulled3 := d.Stats().BytesPulled - 2*total
		if pulled3 <= 0 || pulled3 >= total/2 {
			t.Fatalf("delta checkpoint pulled %d of %d bytes", pulled3, total)
		}
		if n := fallbacks(d); n != 1 {
			t.Fatalf("delta checkpoint counted %d fallbacks, want 1", n)
		}

		// The delta-assembled slot restores byte-identical.
		placed.ApplyUpdate(9)
		iter, err := c.Restore(env)
		if err != nil || iter != 3 {
			t.Fatalf("restore = %d, %v", iter, err)
		}
		if bad := placed.VerifyDigests(deltaBlock, want3); bad != -1 {
			t.Fatalf("block %d wrong after delta restore", bad)
		}

		// A dense update rewrites every block: pull alone would cost a
		// full pass, so the daemon falls back — counted and still correct.
		placed.ApplyUpdate(4)
		if err := c.CheckpointSync(env, 4); err != nil {
			t.Fatal(err)
		}
		if n := fallbacks(d); n != 2 {
			t.Fatalf("dense checkpoint counted %d fallbacks, want 2", n)
		}
		placed.ApplyUpdate(9)
		if iter, err := c.Restore(env); err != nil || iter != 4 {
			t.Fatalf("restore = %d, %v", iter, err)
		}
		if bad := placed.VerifyIteration(4); bad != -1 {
			t.Fatalf("tensor %d wrong after fallback restore", bad)
		}
	})
	eng.Run()
}

// TestDeltaDisabledDaemonFallsBack: a digest-carrying client against a
// daemon with delta off runs full checkpoints, counted as fallbacks,
// with correctness untouched.
func TestDeltaDisabledDaemonFallsBack(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, placed, c, _ := deltaRig(t, env, func(cfg *daemon.Config) { cfg.DeltaEnabled = false })
		total := placed.Spec.TotalSize()
		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		placed.ApplySparseUpdate(2, deltaBlock, 0.05)
		want2 := placed.BlockDigests(deltaBlock)
		if err := c.CheckpointSync(env, 2); err != nil {
			t.Fatal(err)
		}
		if got := d.Stats().BytesPulled; got != 2*total {
			t.Fatalf("pulled %d bytes with delta off, want 2×%d", got, total)
		}
		if n := fallbacks(d); n != 2 {
			t.Fatalf("counted %d fallbacks, want 2", n)
		}
		placed.ApplyUpdate(9)
		if iter, err := c.Restore(env); err != nil || iter != 2 {
			t.Fatalf("restore = %d, %v", iter, err)
		}
		if bad := placed.VerifyDigests(deltaBlock, want2); bad != -1 {
			t.Fatalf("block %d wrong", bad)
		}
	})
	eng.Run()
}

// TestDigestTableLossIsNotAFallback: a checkpoint whose digest table
// cannot persist (the metadata zone has room for the model's MIndex
// but not for its table) still commits a restorable version. It is
// flight-recorded as delta.table-lost, not as delta.fallback: that
// count stays "checkpoints that asked for delta and ran full", and the
// loss only shows when the next checkpoint falls back.
func TestDigestTableLossIsNotAFallback(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, placed, c, _ := deltaRig(t, env, func(cfg *daemon.Config) {
			// The allocation table, two 512-entry ModelTable
			// generations, and just enough MIndex space for this model.
			cfg.PMem = pmem.New(pmem.Config{
				Name: "tight-meta", DataSize: 16 << 20, MetaSize: 4<<20 + 140<<10 + 1024, Materialized: true,
			})
		})
		placed.ApplyUpdate(1)
		want := placed.BlockDigests(deltaBlock)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		if n := d.Events().Count(telemetry.EvDeltaTableLost); n != 1 {
			t.Fatalf("delta.table-lost events = %d, want 1", n)
		}
		if n := fallbacks(d); n != 0 {
			t.Fatalf("a lost table counted %d fallbacks, want 0", n)
		}
		placed.ApplyUpdate(9)
		if iter, err := c.Restore(env); err != nil || iter != 1 {
			t.Fatalf("restore = %d, %v", iter, err)
		}
		if bad := placed.VerifyDigests(deltaBlock, want); bad != -1 {
			t.Fatalf("block %d wrong", bad)
		}
	})
	eng.Run()
}

// TestDeltaBlockPinRejectsMismatch: a daemon pinned to one block size
// treats a client computing another as a fallback to full.
func TestDeltaBlockPinRejectsMismatch(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, placed, c, _ := deltaRig(t, env, func(cfg *daemon.Config) { cfg.DeltaBlockBytes = 64 << 10 })
		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		placed.ApplySparseUpdate(2, deltaBlock, 0.05)
		if err := c.CheckpointSync(env, 2); err != nil {
			t.Fatal(err)
		}
		if got, total := d.Stats().BytesPulled, 2*placed.Spec.TotalSize(); got != total {
			t.Fatalf("pulled %d bytes under block mismatch, want %d", got, total)
		}
		if n := fallbacks(d); n != 2 {
			t.Fatalf("counted %d fallbacks, want 2", n)
		}
	})
	eng.Run()
}

// TestUntaggedDigestTablesFallBackOnce: digest tables persisted by a
// build whose layout hash carried no digest-kind tag (its digests were
// FNV-64a, not the CRC pair) survive a reopen but are never diffed. The
// first checkpoint after the reopen falls back to a full pull for want
// of a trusted table; the ladder then re-arms exactly as for a new
// model, and the delta-assembled version restores byte-identical.
func TestUntaggedDigestTablesFallBackOnce(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		cl, err := cluster.New(env, cluster.Config{
			ComputeNodes: 1, GPUsPerNode: 1,
			GPUMemBytes: 8 << 20, PMemBytes: 16 << 20, Materialized: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		pm := cl.Storage[0].PMem
		placed, err := gpu.Place(cl.GPU(0, 0), model.GPT("m", 2, 32, 128, 0))
		if err != nil {
			t.Fatal(err)
		}
		total := placed.Spec.TotalSize()
		net := wire.NewSimNet()
		boot := func(name string) (*daemon.Daemon, *client.Client) {
			d, err := daemon.New(env, daemon.Config{
				PMem: pm, RNode: cl.Storage[0].RNode, Fabric: cl.Fabric, DeltaEnabled: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			l, err := net.Listen(env, name)
			if err != nil {
				t.Fatal(err)
			}
			env.Go("serve-"+name, func(env sim.Env) { d.Serve(env, l) })
			conn, err := net.Dial(env, name)
			if err != nil {
				t.Fatal(err)
			}
			c, err := client.RegisterOpts(env, conn, cl.Compute[0].RNode, placed,
				client.Options{DeltaBlockBytes: deltaBlock})
			if err != nil {
				t.Fatal(err)
			}
			return d, c
		}
		checkpoint := func(c *client.Client, iter uint64) {
			placed.ApplySparseUpdate(iter, deltaBlock, 0.05)
			if err := c.CheckpointSync(env, iter); err != nil {
				t.Fatal(err)
			}
		}

		// Run the ladder to a true delta, so both slots carry a table.
		old, c := boot("before")
		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		checkpoint(c, 2)
		checkpoint(c, 3)
		if got := old.Stats().BytesPulled; got >= 3*total {
			t.Fatalf("third checkpoint was not a delta: %d bytes pulled", got)
		}
		c.Close()
		// Re-persist both tables as the untagged build left them: the
		// layout hash over (block size, tensor sizes) alone.
		m, err := old.Store().Lookup("m")
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(deltaBlock)))
		for _, tm := range m.Tensors {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(tm.Size)))
		}
		for slot := 0; slot < 2; slot++ {
			tab, ok := old.Store().DeltaGet(m, slot)
			if !ok {
				t.Fatalf("slot %d has no digest table", slot)
			}
			tab.Layout = h.Sum64()
			if err := old.Store().DeltaPut(m, slot, tab); err != nil {
				t.Fatal(err)
			}
		}
		pm.Crash()

		d, c := boot("after")
		defer c.Close()
		reasons := func() []string {
			var out []string
			for _, ev := range d.Events().Snapshot() {
				if ev.Kind == telemetry.EvDeltaFallback {
					out = append(out, ev.Detail)
				}
			}
			return out
		}
		checkpoint(c, 4)
		if got := d.Stats().BytesPulled; got != total {
			t.Fatalf("first checkpoint after reopen pulled %d bytes, want full %d", got, total)
		}
		if r := reasons(); len(r) != 1 || r[0] != "previous version has no trusted digest table" {
			t.Fatalf("fallback reasons %q", r)
		}
		// The other slot's table is still untagged, so nothing can skip:
		// one more full pull, the same warm-up a new model pays.
		checkpoint(c, 5)
		checkpoint(c, 6)
		if pulled := d.Stats().BytesPulled - 2*total; pulled <= 0 || pulled >= total/2 {
			t.Fatalf("third checkpoint after reopen pulled %d of %d bytes", pulled, total)
		}
		if n := fallbacks(d); n != 2 {
			t.Fatalf("counted %d fallbacks after reopen, want 2", n)
		}
		want := placed.BlockDigests(deltaBlock)
		placed.ApplyUpdate(9)
		if iter, err := c.Restore(env); err != nil || iter != 6 {
			t.Fatalf("restore = %d, %v", iter, err)
		}
		if bad := placed.VerifyDigests(deltaBlock, want); bad != -1 {
			t.Fatalf("block %d wrong after restore", bad)
		}
	})
	eng.Run()
}
