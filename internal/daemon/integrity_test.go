package daemon_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/store"
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

// TestCorruptRestoreNamesTheBlock: when the slot refused as CORRUPT
// has a trusted digest table, the refusal names the block holding the
// flipped byte and counts the bad blocks; no GPU byte is written.
func TestCorruptRestoreNamesTheBlock(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, placed, c, pm := deltaRig(t, env, nil)
		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		slot, _ := doneHeader(t, d, 1)
		m, err := d.Store().Lookup("m")
		if err != nil {
			t.Fatal(err)
		}
		// Tensor 0, the word embeddings, spans four blocks; the byte
		// sits in the second.
		at := m.TensorData(0, slot).Off + deltaBlock + 5
		orig := pm.Data().Bytes(at, 1)
		pm.Data().Write(at, []byte{orig[0] ^ 0x10})

		placed.ApplyUpdate(77)
		gpu := placed.BlockDigests(deltaBlock)
		_, err = c.Restore(env)
		if !errors.Is(err, client.ErrCorruptReplica) {
			t.Fatalf("restore with a flipped byte = %v, want ErrCorruptReplica", err)
		}
		want := fmt.Sprintf("1 of %d blocks differ from their digests, the first in tensor %q at byte %d",
			len(gpu), m.Tensors[0].Name, deltaBlock)
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not say %q", err, want)
		}
		if bad := placed.VerifyDigests(deltaBlock, gpu); bad != -1 {
			t.Fatalf("a refused restore wrote block %d of the GPU", bad)
		}
	})
	eng.Run()
}

// TestDumpRefusesRottedBlock: DUMP holds no lane and reads the slot
// without a restore, so it checks what it copies against the version's
// stamp itself — one rotted block and the archive is refused as CORRUPT
// with restore's message, naming the block; repaired, it goes out.
func TestDumpRefusesRottedBlock(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, placed, c, pm := deltaRig(t, env, nil)
		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		net := wire.NewSimNet()
		l, err := net.Listen(env, "admin")
		if err != nil {
			t.Fatal(err)
		}
		env.Go("admin", func(env sim.Env) { d.Serve(env, l) })
		admin, err := net.Dial(env, "admin")
		if err != nil {
			t.Fatal(err)
		}
		slot, h := doneHeader(t, d, 1)
		m, err := d.Store().Lookup("m")
		if err != nil {
			t.Fatal(err)
		}
		at := m.TensorData(0, slot).Off + deltaBlock + 5
		orig := pm.Data().Bytes(at, 1)
		pm.Data().Write(at, []byte{orig[0] ^ 0x10})

		before := crcMismatches(d)
		resp, err := wire.Call(env, admin, &wire.Msg{Type: wire.TDump, Model: "m"}, wire.TDumpResp)
		if err == nil || resp == nil || resp.Code != wire.ErrCodeCorrupt {
			t.Fatalf("DUMP of a rotted slot = %+v, %v; want CORRUPT", resp, err)
		}
		want := fmt.Sprintf("iteration 1 failed integrity check (stored CRC %016x", h.CRC)
		block := fmt.Sprintf("the first in tensor %q at byte %d", m.Tensors[0].Name, deltaBlock)
		if !strings.Contains(resp.Error, want) || !strings.Contains(resp.Error, block) {
			t.Fatalf("refusal %q does not say %q and %q", resp.Error, want, block)
		}
		if got := crcMismatches(d) - before; got != 1 {
			t.Fatalf("portus_daemon_crc_mismatch_total moved by %d, want 1", got)
		}
		pm.Data().Write(at, orig)
		if resp, err := wire.Call(env, admin, &wire.Msg{Type: wire.TDump, Model: "m"}, wire.TDumpResp); err != nil || resp.Iteration != 1 {
			t.Fatalf("DUMP of the repaired slot = %+v, %v", resp, err)
		}
	})
	eng.Run()
}

// flipBeforeFlush makes cfg's flush, while *armed, flip one byte of
// the live range before persisting it, once: bytes corrupted between
// the fabric and the flush.
func flipBeforeFlush(cfg *daemon.Config, armed *bool) {
	pm := cfg.PMem
	cfg.Flush = func(off, n int64, crc *uint32) error {
		if *armed {
			*armed = false
			b := pm.Data().Bytes(off+n/2, 1)
			pm.Data().Write(off+n/2, []byte{b[0] ^ 0x01})
		}
		pm.FlushDataCRC(off, n, crc)
		return nil
	}
}

func sparse3(p *gpu.PlacedModel) { p.ApplySparseUpdate(3, deltaBlock, 0.05) }

// TestCorruptedBeforeFlushIsRefused: a checkpoint whose slot does not
// hold what the client digested never goes DONE — whether a byte of a
// delta's pulled chunk or of a full checkpoint changed between fabric
// and flush, or the digest vector does not describe the bytes. The
// checkpoint fails naming the tensor, the mismatch is counted, the
// slot stays ACTIVE, and the previous iteration still restores
// byte-identical.
func TestCorruptedBeforeFlushIsRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		// update dirties the GPU for iteration 3: sparse for a delta,
		// dense for a full checkpoint.
		update func(p *gpu.PlacedModel)
		delta  bool // iteration 3 plans as a delta, not a full pull
		flip   bool
		// forge, when set, replaces the client's digest vector.
		forge func([]uint64) []uint64
	}{
		{"delta pulled chunk", sparse3, true, true, nil},
		{"full checkpoint with digests", func(p *gpu.PlacedModel) { p.ApplyUpdate(3) }, false, true, nil},
		{"digests that do not describe the bytes", sparse3, true, false,
			func(dg []uint64) []uint64 { dg[0] ^= 1 << 32; return dg }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			eng.Go("test", func(env sim.Env) {
				armed := false
				d, placed, c, _ := deltaRig(t, env, func(cfg *daemon.Config) { flipBeforeFlush(cfg, &armed) })
				placed.ApplyUpdate(1)
				if err := c.CheckpointSync(env, 1); err != nil {
					t.Fatal(err)
				}
				placed.ApplySparseUpdate(2, deltaBlock, 0.05)
				if err := c.CheckpointSync(env, 2); err != nil {
					t.Fatal(err)
				}
				want2 := placed.BlockDigests(deltaBlock)
				m, err := d.Store().Lookup("m")
				if err != nil {
					t.Fatal(err)
				}

				tc.update(placed)
				armed = tc.flip
				before, falls := crcMismatches(d), fallbacks(d)
				if tc.forge == nil {
					err = c.CheckpointSync(env, 3)
				} else {
					// A second control connection carries the forged vector;
					// the model's regions are the registered client's.
					net := wire.NewSimNet()
					l, lerr := net.Listen(env, "forged")
					if lerr != nil {
						t.Fatal(lerr)
					}
					env.Go("serve-forged", func(env sim.Env) { d.Serve(env, l) })
					conn, derr := net.Dial(env, "forged")
					if derr != nil {
						t.Fatal(derr)
					}
					defer conn.Close()
					resp := request(t, env, conn, &wire.Msg{Type: wire.TDoCheckpoint, Model: "m", Iteration: 3,
						Digests: tc.forge(placed.BlockDigests(deltaBlock)), DeltaBlock: deltaBlock})
					if resp.Type == wire.TError {
						err = errors.New(resp.Error)
					}
				}
				if err == nil || !strings.Contains(err.Error(), "checkpoint does not match the client's digests") {
					t.Fatalf("checkpoint 3 = %v, want refused", err)
				}
				if tc.forge != nil && !strings.Contains(err.Error(), fmt.Sprintf("the first in tensor %q at byte 0", m.Tensors[0].Name)) {
					t.Fatalf("refusal %q does not name the forged block", err)
				}
				if armed {
					t.Fatal("no flush ran")
				}
				if got := crcMismatches(d) - before; got != 1 {
					t.Fatalf("portus_daemon_crc_mismatch_total moved by %d, want 1", got)
				}
				if delta := fallbacks(d) == falls; delta != tc.delta {
					t.Fatalf("iteration 3 planned as a delta: %v, want %v", delta, tc.delta)
				}
				for s, h := range headers(t, d) {
					if h.Iteration == 3 && h.State != index.StateActive {
						t.Fatalf("slot %d holds iteration 3 in state %d, want ACTIVE", s, h.State)
					}
				}
				placed.ApplyUpdate(99)
				if iter, err := c.Restore(env); err != nil || iter != 2 {
					t.Fatalf("restore after the refusal = %d, %v; want 2", iter, err)
				}
				if bad := placed.VerifyDigests(deltaBlock, want2); bad != -1 {
					t.Fatalf("block %d not byte-identical after restoring iteration 2", bad)
				}
			})
			eng.Run()
		})
	}
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
// pulled dirty blocks, copied-forward and skipped clean ones carries
// the stamp a full pull of the same content gets — joined from the
// flushes and the skipped blocks' digests after a delta, carried
// through the flushes of the full pull.
func TestDeltaWrittenSlotStampsLikeFullWritten(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		var stamps [2]uint64
		for i, deltaOn := range []bool{true, false} {
			hashed := 0
			d, placed, c, pm := deltaRig(t, env, func(cfg *daemon.Config) {
				cfg.DeltaEnabled = deltaOn
				countHashed(cfg, nil, &hashed)
			})
			placed.ApplyUpdate(1)
			if err := c.CheckpointSync(env, 1); err != nil {
				t.Fatal(err)
			}
			var before int
			var ops int64
			for iter := uint64(2); iter <= 3; iter++ {
				placed.ApplySparseUpdate(iter, deltaBlock, 0.05)
				before, ops = hashed, pm.DataFlushOps()
				if err := c.CheckpointSync(env, iter); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := hashed-before, pm.DataFlushOps()-ops; int64(got) != want || got == 0 {
				t.Fatalf("delta=%v: %d of the third checkpoint's %d flushes carried a CRC, want all", deltaOn, got, want)
			}
			total := placed.Spec.TotalSize()
			if pulled3 := d.Stats().BytesPulled - 2*total; deltaOn != (pulled3 < total) {
				t.Fatalf("delta=%v: third checkpoint pulled %d of %d bytes", deltaOn, pulled3, total)
			}
			m, err := d.Store().Lookup("m")
			if err != nil {
				t.Fatal(err)
			}
			slot, h, ok := m.LatestDone()
			if !ok || h.Iteration != 3 {
				t.Fatalf("latest done = %+v", h)
			}
			requireStamp(t, h.CRC)
			if fresh := store.ContentCRC(pm, m, slot); h.CRC != fresh {
				t.Fatalf("delta=%v: stamped %016x, slot hashes to %016x", deltaOn, h.CRC, fresh)
			}
			stamps[i] = h.CRC
		}
		if stamps[0] != stamps[1] {
			t.Fatalf("delta-written slot stamps %016x, full-written %016x", stamps[0], stamps[1])
		}
	})
	eng.Run()
}

// TestRottedSkippedBlockFailsRestore: a block a delta checkpoint skips
// is not read — its stamp comes from its digest, which the target
// slot's table vouches for — so bytes that rotted there since go DONE
// under the stamp of what the block should hold, and the restore
// verify pass refuses the version, naming the block.
func TestRottedSkippedBlockFailsRestore(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, placed, c, pm := deltaRig(t, env, nil)
		var digests [4][]uint64
		for iter := uint64(1); iter <= 2; iter++ {
			placed.ApplySparseUpdate(iter, deltaBlock, 0.05)
			digests[iter] = placed.BlockDigests(deltaBlock)
			if err := c.CheckpointSync(env, iter); err != nil {
				t.Fatal(err)
			}
		}
		placed.ApplySparseUpdate(3, deltaBlock, 0.05)
		digests[3] = placed.BlockDigests(deltaBlock)
		// Checkpoint 3 overwrites iteration 1's slot and skips every
		// block no update since has touched; rot the last of them.
		skip := -1
		for b := range digests[3] {
			if digests[1][b] == digests[3][b] && digests[2][b] == digests[3][b] {
				skip = b
			}
		}
		if skip < 0 {
			t.Fatal("no block left untouched since iteration 1")
		}
		m, err := d.Store().Lookup("m")
		if err != nil {
			t.Fatal(err)
		}
		tensor, off := 0, int64(0)
		for b := skip; ; tensor++ {
			n := int((m.Tensors[tensor].Size + deltaBlock - 1) / deltaBlock)
			if b < n {
				off = int64(b) * deltaBlock
				break
			}
			b -= n
		}
		target, _ := doneHeader(t, d, 1)
		at := m.TensorData(tensor, target).Off + off
		orig := pm.Data().Bytes(at, 1)
		pm.Data().Write(at, []byte{orig[0] ^ 0x40})

		if err := c.CheckpointSync(env, 3); err != nil {
			t.Fatalf("checkpoint 3 over a rotted skipped block = %v, want DONE", err)
		}
		placed.ApplyUpdate(99)
		_, err = c.Restore(env)
		if !errors.Is(err, client.ErrCorruptReplica) {
			t.Fatalf("restore of iteration 3 = %v, want ErrCorruptReplica", err)
		}
		want := fmt.Sprintf("1 of %d blocks differ from their digests, the first in tensor %q at byte %d",
			len(digests[3]), m.Tensors[tensor].Name, off)
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not say %q", err, want)
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
