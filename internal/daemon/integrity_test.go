package daemon_test

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/wire"
)

// doneHeader is the header of the slot holding iteration iter, DONE.
func doneHeader(t *testing.T, d *daemon.Daemon, iter uint64) (int, index.Version) {
	t.Helper()
	for s, h := range headers(t, d) {
		if h.State == index.StateDone && h.Iteration == iter {
			return s, h
		}
	}
	t.Fatalf("no DONE slot at iteration %d: %+v", iter, headers(t, d))
	return 0, index.Version{}
}

// requireStamp fails unless crc has the shape of a CRC-32C stamp: bit 32
// set, nothing above it — so never 0, the header's "no stamp".
func requireStamp(t *testing.T, crc uint64) {
	t.Helper()
	if crc>>32 != 1 {
		t.Fatalf("stamp %016x is not 1<<32 | crc32c", crc)
	}
}

// TestFlippedByteFailsRestore: one wrong byte anywhere in any tensor of
// a DONE slot and the restore is refused as CORRUPT before a byte
// reaches the GPU, counted in portus_daemon_crc_mismatch_total; put the
// byte back and the same slot restores byte-identical.
func TestFlippedByteFailsRestore(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		r := newPairRig(t, env)
		r.commitOnA(t, env, 1)
		slot, h := doneHeader(t, r.a, 1)
		requireStamp(t, h.CRC)
		m, err := r.a.Store().Lookup("m")
		if err != nil {
			t.Fatal(err)
		}
		data := r.cl.Storage[0].PMem.Data()
		for i := range m.Tensors {
			ext := m.TensorData(i, slot)
			at := ext.Off + int64(i)*(ext.Size-1)/int64(len(m.Tensors)-1) // first byte of the first tensor … last of the last
			orig := data.Bytes(at, 1)
			data.Write(at, []byte{orig[0] ^ 0x10})

			r.placed.ApplyUpdate(77)
			before := crcMismatches(r.a)
			if _, err := r.ca.Restore(env); !errors.Is(err, client.ErrCorruptReplica) {
				t.Fatalf("restore with a flipped byte in tensor %d = %v, want ErrCorruptReplica", i, err)
			}
			if got := crcMismatches(r.a) - before; got != 1 {
				t.Fatalf("tensor %d: portus_daemon_crc_mismatch_total moved by %d, want 1", i, got)
			}
			if bad := r.placed.VerifyIteration(77); bad != -1 {
				t.Fatalf("a refused restore wrote tensor %d of the GPU", bad)
			}
			data.Write(at, orig)
		}
		if iter, err := r.ca.Restore(env); err != nil || iter != 1 {
			t.Fatalf("restore of the repaired slot = %d, %v", iter, err)
		}
		if bad := r.placed.VerifyIteration(1); bad != -1 {
			t.Fatalf("tensor %d not byte-identical after restore", bad)
		}
	})
	eng.Run()
}

// TestReplicasAgreeOnStamp: two daemons that each pulled the same
// content stamp it identically — the stamp names the content, not the
// copy.
func TestReplicasAgreeOnStamp(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		r := newPairRig(t, env)
		cb := r.register(t, env, 1)
		defer cb.Close()
		var prev uint64
		for iter := uint64(1); iter <= 3; iter++ {
			r.placed.ApplyUpdate(iter)
			for _, c := range []*client.Client{r.ca, cb} {
				if err := c.CheckpointSync(env, iter); err != nil {
					t.Fatal(err)
				}
			}
			_, ha := doneHeader(t, r.a, iter)
			_, hb := doneHeader(t, r.b, iter)
			requireStamp(t, ha.CRC)
			if ha.CRC != hb.CRC {
				t.Fatalf("iteration %d: replica stamps %016x and %016x differ", iter, ha.CRC, hb.CRC)
			}
			if ha.CRC == prev {
				t.Fatalf("iterations %d and %d stamp the same", iter-1, iter)
			}
			prev = ha.CRC
		}
	})
	eng.Run()
}

// TestDeltaWrittenSlotStampsLikeFullWritten: a slot assembled from
// pulled dirty blocks and copied-forward clean ones carries the stamp a
// full pull of the same content gets.
func TestDeltaWrittenSlotStampsLikeFullWritten(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		var stamps [2]uint64
		for i, deltaOn := range []bool{true, false} {
			d, placed, c, _ := deltaRig(t, env, func(cfg *daemon.Config) { cfg.DeltaEnabled = deltaOn })
			placed.ApplyUpdate(1)
			if err := c.CheckpointSync(env, 1); err != nil {
				t.Fatal(err)
			}
			for iter := uint64(2); iter <= 3; iter++ {
				placed.ApplySparseUpdate(iter, deltaBlock, 0.05)
				if err := c.CheckpointSync(env, iter); err != nil {
					t.Fatal(err)
				}
			}
			total := placed.Spec.TotalSize()
			if pulled3 := d.Stats().BytesPulled - 2*total; deltaOn != (pulled3 < total) {
				t.Fatalf("delta=%v: third checkpoint pulled %d of %d bytes", deltaOn, pulled3, total)
			}
			m, err := d.Store().Lookup("m")
			if err != nil {
				t.Fatal(err)
			}
			_, h, ok := m.LatestDone()
			if !ok || h.Iteration != 3 {
				t.Fatalf("latest done = %+v", h)
			}
			requireStamp(t, h.CRC)
			stamps[i] = h.CRC
		}
		if stamps[0] != stamps[1] {
			t.Fatalf("delta-written slot stamps %016x, full-written %016x", stamps[0], stamps[1])
		}
	})
	eng.Run()
}

// TestFormat1ImageRestoresAndRestamps: a namespace written before
// superblock format 2 — CRC-64 stamps no code in the tree can verify —
// opens under this build, restores byte-identical with nothing to check,
// and its next checkpoint is stamped the new way.
func TestFormat1ImageRestoresAndRestamps(t *testing.T) {
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
		net := wire.NewSimNet()
		boot := func(name string) (*daemon.Daemon, *client.Client) {
			d, err := daemon.New(env, daemon.Config{PMem: pm, RNode: cl.Storage[0].RNode, Fabric: cl.Fabric})
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
			c, err := client.Register(env, conn, cl.Compute[0].RNode, placed)
			if err != nil {
				t.Fatal(err)
			}
			return d, c
		}

		old, c := boot("before")
		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		c.Close()
		// Make it the image an older build would have left: a stamp that
		// is not a CRC-32C of anything, under superblock format 1 (the
		// word at offset 8).
		slot, _ := doneHeader(t, old, 1)
		m, err := old.Store().Lookup("m")
		if err != nil {
			t.Fatal(err)
		}
		m.SetDoneCRC(slot, 1, time.Unix(0, 1), 0xfeedfacecafebeef)
		pm.WriteMeta(8, binary.LittleEndian.AppendUint64(nil, 1))
		pm.FlushMeta(8, 8)
		pm.Crash()

		d, c := boot("after")
		defer c.Close()
		if _, h := doneHeader(t, d, 1); h.CRC != 0 {
			t.Fatalf("format-1 stamp survived the open: %+v", h)
		}
		placed.ApplyUpdate(99)
		if iter, err := c.Restore(env); err != nil || iter != 1 {
			t.Fatalf("restore from the format-1 image = %d, %v", iter, err)
		}
		if bad := placed.VerifyIteration(1); bad != -1 {
			t.Fatalf("tensor %d not byte-identical after restore", bad)
		}
		if n := crcMismatches(d); n != 0 {
			t.Fatalf("an unstamped version counted %d CRC mismatches", n)
		}
		placed.ApplyUpdate(2)
		if err := c.CheckpointSync(env, 2); err != nil {
			t.Fatal(err)
		}
		_, h := doneHeader(t, d, 2)
		requireStamp(t, h.CRC)
	})
	eng.Run()
}
