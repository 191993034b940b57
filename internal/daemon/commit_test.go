package daemon_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/alloc"
	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/serialize"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/store"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// pairRig is two independent single-node daemons, a (the healthy
// source) and b (the replica being rebuilt), plus one model placed on
// the GPU and registered with a by a client that ships block digests.
type pairRig struct {
	cl     *cluster.Cluster
	net    *wire.SimNet
	a, b   *daemon.Daemon
	placed *gpu.PlacedModel
	ca     *client.Client
	// ref holds each checkpointed iteration's block digests.
	ref map[uint64][]uint64
	// bReads is b's fabric, where a test hooks b's pulls.
	bReads *readHook
}

// readHook runs hook, once, before the n-th READ its daemon issues,
// and then clears it.
type readHook struct {
	rdma.Fabric
	n    int
	hook func()
}

func (f *readHook) PostList(env sim.Env, local *rdma.Node, write bool, ops []rdma.Op, done func(i int, err error)) {
	if write {
		f.Fabric.PostList(env, local, write, ops, done)
		return
	}
	for i := range ops {
		if f.n--; f.n == 0 && f.hook != nil {
			f.hook()
			f.hook = nil
		}
		f.Fabric.PostList(env, local, write, ops[i:i+1], func(_ int, err error) { done(i, err) })
	}
}

func newPairRig(t *testing.T, env sim.Env) *pairRig {
	t.Helper()
	cl, err := cluster.New(env, cluster.Config{
		ComputeNodes: 1, GPUsPerNode: 1, StorageNodes: 2,
		GPUMemBytes: 8 << 20, PMemBytes: 16 << 20, Materialized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &pairRig{cl: cl, net: wire.NewSimNet(), ref: map[uint64][]uint64{}, bReads: &readHook{Fabric: cl.Fabric}}
	for i, dst := range []**daemon.Daemon{&r.a, &r.b} {
		st := cl.Storage[i]
		fab := rdma.Fabric(cl.Fabric)
		if i == 1 {
			fab = r.bReads
		}
		d, err := daemon.New(env, daemon.Config{PMem: st.PMem, RNode: st.RNode, Fabric: fab, DeltaEnabled: true})
		if err != nil {
			t.Fatal(err)
		}
		l, err := r.net.Listen(env, st.Name)
		if err != nil {
			t.Fatal(err)
		}
		env.Go("serve-"+st.Name, func(env sim.Env) { d.Serve(env, l) })
		*dst = d
	}
	r.placed, err = gpu.Place(cl.GPU(0, 0), model.GPT("m", 2, 32, 128, 0))
	if err != nil {
		t.Fatal(err)
	}
	r.ca = r.register(t, env, 0)
	return r
}

func (r *pairRig) dial(t *testing.T, env sim.Env, node int) wire.Conn {
	t.Helper()
	conn, err := r.net.Dial(env, r.cl.Storage[node].Name)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// pairBlock is the pair rig's digest block: the 28-tensor GPT spans
// several blocks per large tensor.
const pairBlock = 16 << 10

// register attaches the placed model to storage node `node`'s daemon.
func (r *pairRig) register(t *testing.T, env sim.Env, node int) *client.Client {
	t.Helper()
	c, err := client.RegisterOpts(env, r.dial(t, env, node), r.cl.Compute[0].RNode, r.placed,
		client.Options{DeltaBlockBytes: pairBlock})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// commitOnA updates the weights — every block when rate is 0, that
// fraction of them otherwise — checkpoints iteration iter on a, and
// returns a's REPLICATE of exactly that iteration.
func (r *pairRig) commitOnA(t *testing.T, env sim.Env, iter uint64, rate ...float64) *wire.Msg {
	t.Helper()
	if len(rate) == 0 {
		r.placed.ApplyUpdate(iter)
	} else {
		r.placed.ApplySparseUpdate(iter, pairBlock, rate[0])
	}
	r.ref[iter] = r.placed.BlockDigests(pairBlock)
	if err := r.ca.CheckpointSync(env, iter); err != nil {
		t.Fatal(err)
	}
	return r.describe(t, env, iter)
}

// describe asks a for the REPLICATE of iteration iter.
func (r *pairRig) describe(t *testing.T, env sim.Env, iter uint64) *wire.Msg {
	t.Helper()
	conn := r.dial(t, env, 0)
	defer conn.Close()
	rep := request(t, env, conn, &wire.Msg{Type: wire.TDescribe, Model: "m", Iteration: iter})
	if rep.Type != wire.TReplicate || rep.Iteration != iter || len(rep.Tensors) == 0 {
		t.Fatalf("DESCRIBE of iteration %d = %+v", iter, rep)
	}
	requireStamp(t, rep.CRC)
	return rep
}

// restoreFromB scrambles the GPU, restores through b, and requires
// exactly iteration want, byte for byte.
func (r *pairRig) restoreFromB(t *testing.T, env sim.Env, want uint64) {
	t.Helper()
	cb := r.register(t, env, 1)
	defer cb.Close()
	r.placed.ApplyUpdate(want + 1000)
	iter, err := cb.RestoreAt(env, want)
	if err != nil || iter != want {
		t.Fatalf("restore from b = iteration %d, %v; want %d", iter, err, want)
	}
	if bad := r.placed.VerifyDigests(pairBlock, r.ref[want]); bad != -1 {
		t.Fatalf("block %d not byte-identical after restoring iteration %d from b", bad, want)
	}
}

func headers(t *testing.T, d *daemon.Daemon) [2]index.Version {
	t.Helper()
	m, err := d.Store().Lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	return [2]index.Version{m.VersionHeader(0), m.VersionHeader(1)}
}

func crcMismatches(d *daemon.Daemon) int64 {
	return d.Telemetry().Counter("portus_daemon_crc_mismatch_total", "").Value()
}

// TestReplicateCommitsThroughTheCheckpointPath drives re-replication
// directly (it is otherwise only reached through the router): a
// REPLICATE must commit exactly like a checkpoint — DONE with the
// holder's stamp and digest table, restorable byte-identical — refuse a
// copy that does not hash to the holder's stamp without disturbing what
// is already committed, and be idempotent for an iteration already
// present.
func TestReplicateCommitsThroughTheCheckpointPath(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, env sim.Env, r *pairRig, conn wire.Conn)
	}{
		{"a's version installs DONE on b with a's stamp and table", func(t *testing.T, env sim.Env, r *pairRig, conn wire.Conn) {
			rep := r.commitOnA(t, env, 1)
			if len(rep.Digests) == 0 {
				t.Fatal("a's REPLICATE carries no digest table")
			}
			resp := request(t, env, conn, rep)
			if resp.Type != wire.TCheckpointDone || resp.CRC != rep.CRC {
				t.Fatalf("REPLICATE reply = %+v, want CHECKPOINT_DONE with CRC %016x", resp, rep.CRC)
			}
			slot, _ := doneHeader(t, r.b, 1)
			m, err := r.b.Store().Lookup("m")
			if err != nil {
				t.Fatal(err)
			}
			if tab := m.Digests(slot, 0); tab == nil || !slices.Equal(tab.Digests, rep.Digests) {
				t.Fatal("b's copy does not keep a's digest table")
			}
			r.restoreFromB(t, env, 1)
		}},
		{"wrong CRC is refused and the committed version survives", func(t *testing.T, env sim.Env, r *pairRig, conn wire.Conn) {
			if resp := request(t, env, conn, r.commitOnA(t, env, 1)); resp.Type != wire.TCheckpointDone {
				t.Fatalf("seeding REPLICATE = %+v", resp)
			}
			second := r.commitOnA(t, env, 2)
			second.CRC ^= 1
			before := crcMismatches(r.b)
			resp := request(t, env, conn, second)
			if resp.Type != wire.TError || resp.Code != wire.ErrCodeCorrupt || resp.InReplyTo != wire.TReplicate {
				t.Fatalf("REPLICATE with a wrong CRC = %+v, want a CORRUPT error", resp)
			}
			if got := crcMismatches(r.b) - before; got != 1 {
				t.Fatalf("portus_daemon_crc_mismatch_total moved by %d, want 1", got)
			}
			// The refused copy stays ACTIVE — never restorable — beside the
			// committed iteration 1.
			if s, _ := doneHeader(t, r.b, 1); headers(t, r.b)[1-s].State != index.StateActive || headers(t, r.b)[1-s].Iteration != 2 {
				t.Fatalf("slots after the refused REPLICATE = %+v, want iteration 2 left ACTIVE", headers(t, r.b))
			}
			r.restoreFromB(t, env, 1)
		}},
		{"repeating a REPLICATE touches neither slot", func(t *testing.T, env sim.Env, r *pairRig, conn wire.Conn) {
			rep := r.commitOnA(t, env, 1)
			if resp := request(t, env, conn, rep); resp.Type != wire.TCheckpointDone {
				t.Fatalf("first REPLICATE = %+v", resp)
			}
			before := headers(t, r.b)
			env.Sleep(1) // a second commit would stamp a later SavedAt
			resp := request(t, env, conn, rep)
			if resp.Type != wire.TCheckpointDone || resp.Iteration != 1 || resp.CRC != rep.CRC {
				t.Fatalf("repeated REPLICATE = %+v, want CHECKPOINT_DONE for iteration 1", resp)
			}
			if after := headers(t, r.b); after != before {
				t.Fatalf("repeated REPLICATE rewrote a slot:\nbefore %+v\nafter  %+v", before, after)
			}
		}},
		{"a holder slot overwritten mid-pull is refused", func(t *testing.T, env sim.Env, r *pairRig, conn wire.Conn) {
			if resp := request(t, env, conn, r.commitOnA(t, env, 1)); resp.Type != wire.TCheckpointDone {
				t.Fatalf("seeding REPLICATE = %+v", resp)
			}
			rep := r.commitOnA(t, env, 2)
			// After b's first pull lands, a's last tensor — not pulled yet —
			// changes under it, as if a checkpoint reused the slot.
			last := rep.Tensors[len(rep.Tensors)-1]
			r.bReads.n, r.bReads.hook = 2, func() {
				r.cl.Storage[0].PMem.Data().Write(last.Off, bytes.Repeat([]byte{0xA5}, int(last.Size)))
			}
			resp := request(t, env, conn, rep)
			if r.bReads.hook != nil {
				t.Fatal("the overwrite hook never fired")
			}
			if resp.Type != wire.TError || resp.Code != wire.ErrCodeCorrupt {
				t.Fatalf("REPLICATE of an overwritten slot = %+v, want a CORRUPT error", resp)
			}
			if s, _ := doneHeader(t, r.b, 1); headers(t, r.b)[1-s].State != index.StateActive {
				t.Fatalf("slots after the refused REPLICATE = %+v, want iteration 2 left ACTIVE", headers(t, r.b))
			}
			r.restoreFromB(t, env, 1)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			eng.Go("test", func(env sim.Env) {
				r := newPairRig(t, env)
				conn := r.dial(t, env, 1)
				defer conn.Close()
				tc.run(t, env, r, conn)
			})
			eng.Run()
		})
	}
}

// TestReplicateRunsAsDelta: a rebuilt replica's second copy pulls only
// the blocks that differ from its first, a replica holding an older
// slot pair with trusted tables pulls only what changed since, and a
// rebuilt replica
// that received its holder's pair (older first, as anti-entropy sends
// them) takes the client's next checkpoint as a planned delta, not a
// fallback. Every restore is byte-identical.
func TestReplicateRunsAsDelta(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		r := newPairRig(t, env)
		conn := r.dial(t, env, 1)
		defer conn.Close()
		replicate := func(rep *wire.Msg) int64 {
			before := r.b.Stats().BytesPulled
			if resp := request(t, env, conn, rep); resp.Type != wire.TCheckpointDone || resp.CRC != rep.CRC {
				t.Fatalf("REPLICATE of iteration %d = %+v", rep.Iteration, resp)
			}
			return r.b.Stats().BytesPulled - before
		}
		total := r.placed.Spec.TotalSize()
		r.commitOnA(t, env, 1)
		second := r.commitOnA(t, env, 2, 0.2)
		replicate(r.describe(t, env, 1))
		// Nothing in b's other slot to skip, but the blocks iteration 2
		// shares with iteration 1 copy forward inside b's PMem: the pair's
		// second copy pulls only the blocks that differ.
		if got, want := replicate(second), changedBytes(r.placed, pairBlock, r.ref[1], r.ref[2]); got != want || got <= 0 || got >= total/2 {
			t.Fatalf("rebuilding iteration 2 beside iteration 1 pulled %d of %d bytes, want the %d that differ", got, total, want)
		}
		r.restoreFromB(t, env, 1)

		// b rejoins after a's stream moved on: only blocks changed since
		// b's pair cross the fabric.
		r.commitOnA(t, env, 3, 0.05)
		fourth := r.commitOnA(t, env, 4, 0.05)
		if got := replicate(fourth); got <= 0 || got >= total/2 {
			t.Fatalf("delta re-replication of iteration 4 pulled %d of %d bytes", got, total)
		}
		r.restoreFromB(t, env, 4)

		// The client moves to b (the GPU holds iteration 4 again, as
		// restored): its first checkpoint there is a delta.
		cb := r.register(t, env, 1)
		defer cb.Close()
		r.placed.ApplySparseUpdate(5, pairBlock, 0.05)
		r.ref[5] = r.placed.BlockDigests(pairBlock)
		events := r.b.Events()
		fallbacks, plans := events.Count(telemetry.EvDeltaFallback), events.Count(telemetry.EvDeltaPlan)
		if err := cb.CheckpointSync(env, 5); err != nil {
			t.Fatal(err)
		}
		if events.Count(telemetry.EvDeltaFallback) != fallbacks || events.Count(telemetry.EvDeltaPlan) != plans+1 {
			t.Fatal("the client's first checkpoint on the rebuilt replica was not planned as a delta")
		}
		r.restoreFromB(t, env, 5)
	})
	eng.Run()
}

// TestOneHandleAcrossRepackAndReregister walks one model through every
// path that reads or repoints its extents — checkpoint, online repack,
// re-registration, checkpoint again, DUMP, restore — and requires they
// all agree: were any of them on a private copy of the MIndex, the
// post-repack checkpoint would land in freed extents and the archive or
// the restore would not match the GPU.
func TestOneHandleAcrossRepackAndReregister(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		cl, err := cluster.New(env, cluster.Config{
			ComputeNodes: 1, GPUsPerNode: 2,
			GPUMemBytes: 8 << 20, PMemBytes: 32 << 20, Materialized: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := daemon.New(env, daemon.Config{PMem: cl.Storage[0].PMem, RNode: cl.Storage[0].RNode, Fabric: cl.Fabric})
		if err != nil {
			t.Fatal(err)
		}
		net := wire.NewSimNet()
		l, err := net.Listen(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		env.Go("serve", func(env sim.Env) { d.Serve(env, l) })
		dial := func() wire.Conn {
			conn, err := net.Dial(env, "storage")
			if err != nil {
				t.Fatal(err)
			}
			return conn
		}
		register := func(gpuIdx int, name string) (*gpu.PlacedModel, *client.Client) {
			placed, err := gpu.Place(cl.GPU(0, gpuIdx), model.GPT(name, 2, 32, 128, 0))
			if err != nil {
				t.Fatal(err)
			}
			c, err := client.Register(env, dial(), cl.Compute[0].RNode, placed)
			if err != nil {
				t.Fatal(err)
			}
			return placed, c
		}
		// "pad" is admitted first, so deleting it opens a gap below m's
		// extents for the repack pass to move them into.
		_, cpad := register(0, "pad")
		placed, c := register(1, "m")
		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		cpad.Close()
		c.Close()
		admin := dial()
		defer admin.Close()
		if resp := request(t, env, admin, &wire.Msg{Type: wire.TDelete, Model: "pad"}); resp.Type != wire.TDeleteOK {
			t.Fatalf("DELETE pad = %+v", resp)
		}
		resp := request(t, env, admin, &wire.Msg{Type: wire.TRepack})
		var rep store.PassReport
		if resp.Type != wire.TRepackResp || json.Unmarshal(resp.Payload, &rep) != nil || rep.BytesMoved == 0 {
			t.Fatalf("REPACK = %+v (report %+v), want a pass that moved m's extents", resp, rep)
		}

		// Re-REGISTER (a restarted client) and checkpoint into the moved
		// extents.
		c, err = client.Register(env, dial(), cl.Compute[0].RNode, placed)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		placed.ApplyUpdate(2)
		if err := c.CheckpointSync(env, 2); err != nil {
			t.Fatal(err)
		}

		dump := request(t, env, admin, &wire.Msg{Type: wire.TDump, Model: "m"})
		if dump.Type != wire.TDumpResp || dump.Iteration != 2 {
			t.Fatalf("DUMP = %+v, want iteration 2", dump)
		}
		ckpt, err := serialize.Decode(bytes.NewReader(dump.Payload))
		if err != nil {
			t.Fatal(err)
		}
		for i, blob := range ckpt.Tensors {
			if want := placed.GPU.Mem().Bytes(placed.Offs[i], blob.Meta.Size); !bytes.Equal(blob.Data, want) {
				t.Fatalf("archived tensor %d differs from the GPU's iteration-2 weights", i)
			}
		}
		placed.ApplyUpdate(99)
		if iter, err := c.Restore(env); err != nil || iter != 2 {
			t.Fatalf("restore = iteration %d, %v; want 2", iter, err)
		}
		if bad := placed.VerifyIteration(2); bad != -1 {
			t.Fatalf("tensor %d not byte-identical after restore", bad)
		}

		// No extent leaked or was double-owned along the way: what the
		// allocator holds is exactly what the persistent index points at.
		m, err := d.Store().Lookup("m")
		if err != nil {
			t.Fatal(err)
		}
		var live int64
		for i := range m.Tensors {
			for v := 0; v < 2; v++ {
				if m.PAddr[i][v] != 0 {
					live += m.TensorData(i, v).Size
				}
			}
		}
		if got := d.Engine().Allocator().InUse(); got != live || live != 2*m.TotalSize() {
			t.Fatalf("allocator holds %d bytes, index references %d, model needs %d", got, live, 2*m.TotalSize())
		}
	})
	eng.Run()
}

// TestDeleteTripsBackgroundRepack: a delete that leaves half the data
// zone fragmented starts an online repack pass by itself — no REPACK
// request — and the surviving model, moved down into the gap, restores
// byte-identical.
func TestDeleteTripsBackgroundRepack(t *testing.T) {
	padSpec, mSpec := model.GPT("pad", 2, 64, 512, 0), model.GPT("m", 2, 32, 128, 0)
	var padSlot int64 // one version slot of pad, as the allocator lays it out
	for _, tm := range padSpec.Tensors {
		padSlot += (tm.Size + alloc.Align - 1) / alloc.Align * alloc.Align
	}
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		// Deleting pad's two slots frees exactly half the zone.
		cl, err := cluster.New(env, cluster.Config{
			ComputeNodes: 1, GPUsPerNode: 2,
			GPUMemBytes: 8 << 20, PMemBytes: 4 * padSlot, Materialized: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := daemon.New(env, daemon.Config{PMem: cl.Storage[0].PMem, RNode: cl.Storage[0].RNode, Fabric: cl.Fabric})
		if err != nil {
			t.Fatal(err)
		}
		net := wire.NewSimNet()
		l, err := net.Listen(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		env.Go("serve", func(env sim.Env) { d.Serve(env, l) })
		dial := func() wire.Conn {
			conn, err := net.Dial(env, "storage")
			if err != nil {
				t.Fatal(err)
			}
			return conn
		}
		register := func(gpuIdx int, spec model.Spec) (*gpu.PlacedModel, *client.Client) {
			placed, err := gpu.Place(cl.GPU(0, gpuIdx), spec)
			if err != nil {
				t.Fatal(err)
			}
			c, err := client.Register(env, dial(), cl.Compute[0].RNode, placed)
			if err != nil {
				t.Fatal(err)
			}
			return placed, c
		}
		_, cpad := register(0, padSpec)
		placed, c := register(1, mSpec)
		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		cpad.Close()
		c.Close()

		admin := dial()
		defer admin.Close()
		if runs := d.Engine().RepackRuns(); runs != 0 {
			t.Fatalf("RepackRuns = %d before the delete, want 0", runs)
		}
		if resp := request(t, env, admin, &wire.Msg{Type: wire.TDelete, Model: "pad"}); resp.Type != wire.TDeleteOK {
			t.Fatalf("DELETE pad = %+v", resp)
		}
		for i := 0; i < 1000 && d.Engine().RepackRuns() == 0; i++ {
			env.Sleep(time.Millisecond)
		}
		if runs := d.Engine().RepackRuns(); runs != 1 {
			t.Fatalf("RepackRuns = %d after a delete that fragmented half the zone, want 1", runs)
		}

		c, err = client.Register(env, dial(), cl.Compute[0].RNode, placed)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		placed.ApplyUpdate(99)
		if iter, err := c.Restore(env); err != nil || iter != 1 {
			t.Fatalf("restore = iteration %d, %v; want 1", iter, err)
		}
		if bad := placed.VerifyIteration(1); bad != -1 {
			t.Fatalf("tensor %d not byte-identical after the background repack", bad)
		}
		m, err := d.Store().Lookup("m")
		if err != nil {
			t.Fatal(err)
		}
		var live int64
		for i := range m.Tensors {
			for v := 0; v < 2; v++ {
				if m.PAddr[i][v] != 0 {
					live += m.TensorData(i, v).Size
				}
			}
		}
		if got := d.Engine().Allocator().InUse(); got != live {
			t.Fatalf("allocator holds %d bytes, m's live extents %d", got, live)
		}
	})
	eng.Run()
}
