package crashsweep

import (
	"flag"
	"fmt"
	"slices"
	"testing"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/delta"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/wire"
)

var full = flag.Bool("full", false, "sweep the 28-tensor model (make crash) instead of tier-1's three tensors")

// block is the digest granularity of the delta clients and of the
// reference content the ledger keeps per iteration.
const block = 4 << 10

// row is one scenario of the sweep. setup runs with the device
// persisting normally; every persist boundary of run is a crash point;
// check, when set, adds row-specific assertions on the recovered world
// after the shared invariants held.
type row struct {
	name  string
	setup func(w *world)
	run   func(w *world)
	check func(w *world)
}

// TestSweep crashes every scenario at every persist boundary. N comes
// from a dry run of the same code, so a change that adds or removes a
// persist moves the logged N and is swept without editing this file.
func TestSweep(t *testing.T) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel() // rows share nothing
			n := r.play(t, -1)
			t.Logf("%s: N=%d persists", r.name, n)
			for k := int64(0); k <= n; k++ {
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { r.play(t, k) })
			}
		})
	}
}

// play runs the row once in a fresh world and returns the persist count
// of its run phase. k < 0 is the dry run; otherwise the device goes
// dark after k of those persists, the scenario runs on regardless, the
// power fails, and the invariants are checked on what survived.
func (r row) play(t *testing.T, k int64) (n int64) {
	eng := sim.NewEngine()
	eng.Go("sweep", func(env sim.Env) {
		w := newWorld(t, env)
		if r.setup != nil {
			r.setup(w)
		}
		before := w.persists()
		if k >= 0 {
			w.pm.FailAfter(k)
		}
		r.run(w)
		n = w.persists() - before
		if k >= 0 {
			w.recover(r.check)
		}
	})
	eng.Run()
	return n
}

// world is one storage node, its daemon, and the ledger of what the
// daemon acknowledged while the device still persisted.
type world struct {
	t   *testing.T
	env sim.Env
	cl  *cluster.Cluster
	pm  *pmem.Device

	d     *daemon.Daemon
	net   *wire.SimNet
	admin wire.Conn // DELETE / REPACK / DUMP / LOAD round trips

	tenants map[string]*tenant
	names   []string // registration order
	// pending is the load row's LOAD request, built by its setup.
	pending *wire.Msg
}

// tenant is one model: its GPU copy, its client, and its ledger entry.
type tenant struct {
	placed *gpu.PlacedModel
	c      *client.Client
	delta  bool // the client ships block digests

	// registered and deleted are acknowledgments received before the
	// device went dark; deleting marks a delete that was at least sent.
	registered, deleting, deleted bool
	// acked is the last iteration acknowledged before the device went
	// dark, tried the last one attempted at all.
	acked, tried uint64
	// ref is the reference content (block digests of the GPU copy) of
	// every iteration attempted.
	ref map[uint64][]uint64
}

func newWorld(t *testing.T, env sim.Env) *world {
	// Room for four models in either size; the metadata zone is the
	// 4 MiB allocation table plus a little, and is most of what a
	// boundary costs.
	data := int64(1 << 20)
	if *full {
		data = 4 << 20
	}
	cl, err := cluster.New(env, cluster.Config{
		ComputeNodes: 1, GPUsPerNode: 1, GPUMemBytes: data / 2,
		PMemBytes: data, PMemMetaBytes: index.AllocTableLen + 256<<10, Materialized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &world{t: t, env: env, cl: cl, pm: cl.Storage[0].PMem, tenants: map[string]*tenant{}}
	w.boot()
	return w
}

// boot opens the namespace under a fresh daemon: index.Open,
// store.Open's leak sweep and daemon.New, on whatever the device holds.
func (w *world) boot() {
	d, err := daemon.New(w.env, daemon.Config{
		PMem: w.pm, RNode: w.cl.Storage[0].RNode, Fabric: w.cl.Fabric, DeltaEnabled: true,
	})
	if err != nil {
		w.t.Fatalf("opening the namespace: %v", err)
	}
	w.d, w.net = d, wire.NewSimNet()
	l, err := w.net.Listen(w.env, "storage")
	if err != nil {
		w.t.Fatal(err)
	}
	w.env.Go("serve", func(env sim.Env) { d.Serve(env, l) })
	w.admin = w.dial()
}

func (w *world) dial() wire.Conn {
	conn, err := w.net.Dial(w.env, "storage")
	if err != nil {
		w.t.Fatal(err)
	}
	return conn
}

func (w *world) persists() int64 { return w.pm.DataFlushOps() + w.pm.MetaFlushOps() }

// spec is the swept model: three tensors spanning several digest blocks
// in tier-1, the 28-tensor GPT the issue's prototype used under -full.
func spec(name string) model.Spec {
	if *full {
		return model.GPT(name, 2, 32, 128, 0)
	}
	s := model.Spec{Name: name}
	for i, size := range []int64{40 << 10, 12 << 10, 64} {
		s.Tensors = append(s.Tensors, index.TensorMeta{
			Name: fmt.Sprintf("%s.t%d", name, i), DType: index.F32, Dims: []int64{size / 4}, Size: size,
		})
	}
	return s
}

// add places a model on the GPU and opens its ledger entry.
func (w *world) add(s model.Spec, delta bool) *tenant {
	placed, err := gpu.Place(w.cl.GPU(0, 0), s)
	if err != nil {
		w.t.Fatal(err)
	}
	tn := &tenant{placed: placed, delta: delta, ref: map[uint64][]uint64{}}
	w.tenants[s.Name] = tn
	w.names = append(w.names, s.Name)
	return tn
}

// register attaches a client for name to the current daemon, placing the
// model first when the world has not seen it.
func (w *world) register(name string, delta bool) {
	tn := w.tenants[name]
	if tn == nil {
		tn = w.add(spec(name), delta)
	}
	opts := client.Options{}
	if tn.delta {
		opts.DeltaBlockBytes = block
	}
	c, err := client.RegisterOpts(w.env, w.dial(), w.cl.Compute[0].RNode, tn.placed, opts)
	if err != nil {
		w.t.Fatalf("register %s: %v", name, err)
	}
	tn.c = c
	if !w.pm.Dark() {
		tn.registered = true
	}
}

// checkpoint advances name's weights to iter — every block when rate is
// 0, that fraction of them otherwise — and checkpoints them.
func (w *world) checkpoint(name string, iter uint64, rate float64) {
	tn := w.tenants[name]
	if rate == 0 {
		tn.placed.ApplyUpdate(iter)
	} else {
		tn.placed.ApplySparseUpdate(iter, block, rate)
	}
	tn.ref[iter], tn.tried = tn.placed.BlockDigests(block), iter
	if err := tn.c.CheckpointSync(w.env, iter); err != nil {
		w.t.Fatalf("checkpoint %s@%d: %v", name, iter, err)
	}
	if !w.pm.Dark() {
		tn.acked = iter
	}
}

// call is one admin round trip that must succeed.
func (w *world) call(req *wire.Msg, want wire.Type) *wire.Msg {
	resp, err := wire.Call(w.env, w.admin, req, want)
	if err != nil {
		w.t.Fatalf("%s %s: %v", req.Type, req.Model, err)
	}
	return resp
}

func (w *world) delete(name string) {
	tn := w.tenants[name]
	tn.deleting = true
	w.call(&wire.Msg{Type: wire.TDelete, Model: name}, wire.TDeleteOK)
	if !w.pm.Dark() {
		tn.deleted = true
	}
}

func (w *world) repack() { w.call(&wire.Msg{Type: wire.TRepack}, wire.TRepackResp) }

// recover is the power failure and everything after it: the device
// reverts to its durable image, a fresh daemon opens it, and the
// invariants of DESIGN.md §6 are checked — numbered here as there.
func (w *world) recover(rowCheck func(*world)) {
	w.d.Halt(w.env)
	w.pm.Crash()
	// (1) Open never fails or panics.
	w.boot()
	w.structure()
	for _, name := range w.names {
		w.verify(name)
	}
	if rowCheck != nil {
		rowCheck(w)
	}
	// (7) The system keeps checkpointing: every tenant — re-admitted from
	// scratch if the crash took its model — commits one more iteration
	// and restores it.
	for _, name := range w.names {
		tn := w.tenants[name]
		if _, err := w.d.Store().Lookup(name); err != nil {
			*tn = tenant{placed: tn.placed, delta: tn.delta, ref: map[uint64][]uint64{}}
			w.register(name, tn.delta)
		}
		next := tn.tried + 1
		w.checkpoint(name, next, 0)
		w.restore(name, 0, next)
	}
	w.structure()
}

// verify holds one tenant's recovered state against its ledger entry.
func (w *world) verify(name string) {
	tn := w.tenants[name]
	m, err := w.d.Store().Lookup(name)
	listed := err == nil
	switch {
	case listed && tn.deleted:
		w.t.Fatalf("%s: acknowledged delete did not survive", name)
	case !listed && tn.registered && !tn.deleting:
		// (2) An acknowledged registration exists.
		w.t.Fatalf("%s: acknowledged registration lost: %v", name, err)
	case !listed:
		return
	}
	// (3) The newest DONE iteration lies between the last acknowledged
	// and the last attempted.
	_, latest, ok := m.LatestDone()
	if !ok && tn.acked != 0 {
		w.t.Fatalf("%s: no DONE version, iteration %d was acknowledged", name, tn.acked)
	}
	if ok && (latest.Iteration < tn.acked || latest.Iteration > tn.tried) {
		w.t.Fatalf("%s: newest DONE iteration %d outside [acked %d, tried %d]", name, latest.Iteration, tn.acked, tn.tried)
	}
	// (4) Every DONE slot — not just the newest — restores through the
	// fresh daemon's stored-CRC gate, byte-identical to the reference
	// content of its iteration.
	w.register(name, tn.delta)
	for slot := 0; slot < 2; slot++ {
		if h := m.VersionHeader(slot); h.State == index.StateDone {
			w.restore(name, h.Iteration, h.Iteration)
		}
	}
	if ok {
		w.restore(name, 0, latest.Iteration)
	}
}

// restore scrambles name's GPU copy, restores iteration at (0 = newest)
// and requires it to be iteration want, byte-identical to its reference.
func (w *world) restore(name string, at, want uint64) {
	tn := w.tenants[name]
	ref, ok := tn.ref[want]
	if !ok {
		w.t.Fatalf("%s: iteration %d is DONE but was never attempted", name, want)
	}
	tn.placed.ApplyUpdate(1 << 40)
	var got uint64
	var err error
	if at == 0 {
		got, err = tn.c.Restore(w.env)
	} else {
		got, err = tn.c.RestoreAt(w.env, at)
	}
	if err != nil || got != want {
		w.t.Fatalf("%s: restore(%d) = iteration %d, %v; want %d", name, at, got, err, want)
	}
	if bad := tn.placed.VerifyDigests(block, ref); bad != -1 {
		w.t.Fatalf("%s: restored iteration %d differs from its reference at block %d", name, want, bad)
	}
}

// structure checks the recovered namespace as a whole.
func (w *world) structure() {
	idx, a := w.d.Store(), w.d.Engine().Allocator()
	models, err := idx.Models()
	if err != nil {
		w.t.Fatalf("loading the recovered models: %v", err)
	}
	// (5) Every extent a listed model references is allocated, to it
	// alone, and after Open's leak sweep nothing else is.
	live := map[int64]int64{}
	for _, e := range a.Live() {
		live[e.Off] = e.Size
	}
	for _, m := range models {
		for i, pa := range m.PAddr {
			for slot, off := range pa {
				if off == 0 {
					continue
				}
				if live[off] < m.Tensors[i].Size {
					w.t.Fatalf("%s tensor %d slot %d points at %d, which is not an allocated extent of its own", m.Name, i, slot, off)
				}
				delete(live, off)
			}
		}
	}
	if len(live) != 0 {
		w.t.Fatalf("%d allocated extents no listed model references: %v", len(live), live)
	}
	// (6) A digest table the daemon would trust — valid, and stamped
	// with its slot's DONE iteration — describes that slot's content.
	for _, m := range models {
		for slot := 0; slot < 2; slot++ {
			h := m.VersionHeader(slot)
			tbl, ok := idx.DeltaGet(m, slot)
			if !ok || h.State != index.StateDone || tbl.Iteration != h.Iteration {
				continue
			}
			var got []uint64
			for i := range m.Tensors {
				ext := m.TensorData(i, slot)
				got = delta.AppendDigests(got, w.pm.Data().Fingerprint, ext.Off, ext.Size, tbl.BlockBytes)
			}
			if !slices.Equal(got, tbl.Digests) {
				w.t.Fatalf("%s slot %d: trusted digest table of iteration %d does not describe the slot's content", m.Name, slot, h.Iteration)
			}
		}
	}
}
