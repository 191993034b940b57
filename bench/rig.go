package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/sim"
)

// unit is one checkpointable thing a client drives: a registered model
// (TCP rigs and their virtual twins) or a sharded group (sim-tier).
type unit struct {
	name   string
	bytes  int64              // logical model state protected per checkpoint
	placed []*gpu.PlacedModel // one per shard
	ckpt   func(env portus.Env, it uint64) error
	rest   func(env portus.Env) (uint64, error)
	// committed reports the group-committed iteration; nil for plain models.
	committed func() uint64

	block        int64   // > 0: sparse updates at rate, digests sent, restores checked by digest
	rate         float64 // share of blocks a sparse update rewrites
	restoreEvery int     // a verified restore follows every Nth checkpoint

	next  uint64     // last iteration number handed out; starts at the seed's base
	iter  uint64     // last committed iteration
	ckpts int        // checkpoints taken, for the restore cadence
	want  [][]uint64 // per-shard digests of the committed content (sparse units)
	zeros []byte     // clobber's source, as long as the largest tensor
}

func (u *unit) delta() bool { return u.block > 0 }

// update steps the weights to iteration it: every byte for a dense
// unit, a seeded share of blocks for a sparse one.
func (u *unit) update(it uint64) {
	for _, p := range u.placed {
		if u.delta() {
			p.ApplySparseUpdate(it, u.block, u.rate)
		} else {
			p.ApplyUpdate(it)
		}
	}
}

// remember captures what the committed content looks like, so a later
// restore (in this process or after a crash-restart) can be checked.
// The GPU must still hold exactly what was last checkpointed.
func (u *unit) remember() {
	if !u.delta() {
		return
	}
	u.want = u.want[:0]
	for _, p := range u.placed {
		u.want = append(u.want, p.BlockDigests(u.block))
	}
}

// clobber loses every tensor's content so a restore has something to
// prove: zeros where the GPU holds bytes, a junk stamp where it tracks
// fingerprints.
func (u *unit) clobber() {
	for _, p := range u.placed {
		mem := p.GPU.Mem()
		for i, tm := range p.Spec.Tensors {
			if !mem.Materialized() {
				mem.WriteStamp(p.Offs[i], tm.Size, 0xdead)
				continue
			}
			if int64(len(u.zeros)) < tm.Size {
				u.zeros = make([]byte, tm.Size)
			}
			mem.Write(p.Offs[i], u.zeros[:tm.Size])
		}
	}
}

// verify checks the GPU holds ref's committed content byte for byte.
func (u *unit) verify(ref *unit) bool {
	for i, p := range u.placed {
		if ref.delta() {
			if p.VerifyDigests(ref.block, ref.want[i]) != -1 {
				return false
			}
		} else if p.VerifyIteration(ref.iter) != -1 {
			return false
		}
	}
	return true
}

// shape says what a workload registers and how its clients behave.
type shape struct {
	clients      int
	models       int // per client
	spec         func(client, model int) portus.Spec
	block        int64
	rate         float64
	restoreEvery int
	// tier registers spec(0, 0) twice on the sharded, replicated tier —
	// a dense group and a sparse one using block and rate — instead of
	// plain models on one storage node. Simulated only.
	tier bool
}

// units is how many units each client drives.
func (sh shape) units() int {
	if sh.tier {
		return 2
	}
	return sh.models
}

func (sh shape) newUnit(spec portus.Spec, m *portus.Model) *unit {
	return &unit{
		name: spec.Name, bytes: spec.TotalSize(), placed: []*gpu.PlacedModel{m.Placed()},
		ckpt: m.Checkpoint, rest: m.Restore,
		block: sh.block, rate: sh.rate, restoreEvery: sh.restoreEvery,
	}
}

// rig is a running system under test plus the handles the harness reads
// counters from.
type rig struct {
	daemons []*daemon.Daemon
	pmems   []*pmem.Device
	clients [][]*unit
	close   func(env portus.Env)
	// reopen saves the namespace image, tears the rig down and brings up
	// a fresh server and fresh clients on that image. nil where there is
	// no image path (simulated rigs).
	reopen func(env portus.Env) (*rig, error)
}

func (r *rig) units() []*unit {
	var out []*unit
	for _, c := range r.clients {
		out = append(out, c...)
	}
	return out
}

// counters is a snapshot of what the program exports about bytes moved.
type counters struct {
	pulled, pushed       int64
	flushOps, flushBytes int64
	live                 int64
}

func (r *rig) counters() counters {
	var c counters
	for _, d := range r.daemons {
		st := d.Stats()
		c.pulled += st.BytesPulled
		c.pushed += st.BytesPushed
		c.live += d.Engine().Stats().Live
	}
	for _, pm := range r.pmems {
		c.flushOps += pm.DataFlushOps()
		c.flushBytes += pm.DataFlushBytes()
	}
	return c
}

// newTCPRig starts a server and sh.clients jobs over loopback TCP with
// real bytes. image, when set, is a namespace image to start from.
func newTCPRig(sh shape, outDir, image string) (*rig, error) {
	var total int64
	perClient := make([]int64, sh.clients)
	for c := 0; c < sh.clients; c++ {
		for m := 0; m < sh.models; m++ {
			perClient[c] += sh.spec(c, m).TotalSize()
		}
		total += perClient[c]
	}
	srv, err := portus.NewServer(portus.ServerConfig{
		// Two version slots per model plus allocator slack; sized to the
		// workload so a run touches as little fresh memory as it can.
		PMemBytes:    2*total + total/4 + 16<<20,
		MetaBytes:    16 << 20,
		Materialized: true,
		ImagePath:    image,
		DeltaEnabled: sh.block > 0, DeltaBlockBytes: sh.block,
	})
	if err != nil {
		return nil, err
	}
	go srv.Serve()
	r := &rig{daemons: []*daemon.Daemon{srv.Daemon()}, pmems: []*pmem.Device{srv.PMem()}}
	var jobs []*portus.Job
	var models []*portus.Model
	r.close = func(env portus.Env) {
		for _, m := range models {
			m.Close()
		}
		for _, j := range jobs {
			j.Close()
		}
		srv.Daemon().Halt(env)
		srv.Close()
	}
	for c := 0; c < sh.clients; c++ {
		job, err := portus.NewJob(portus.JobConfig{
			ServerCtrlAddr: srv.CtrlAddr, ServerFabricAddr: srv.FabricAddr,
			NodeName:     fmt.Sprintf("client%d", c),
			GPUMemBytes:  perClient[c] + perClient[c]/8 + 1<<20,
			Materialized: true, DeltaBlockBytes: sh.block,
		})
		if err != nil {
			r.close(portus.NewRealEnv())
			return nil, err
		}
		jobs = append(jobs, job)
		var units []*unit
		for m := 0; m < sh.models; m++ {
			spec := sh.spec(c, m)
			mod, err := job.RegisterModel(spec)
			if err != nil {
				r.close(portus.NewRealEnv())
				return nil, fmt.Errorf("register %s: %w", spec.Name, err)
			}
			models = append(models, mod)
			units = append(units, sh.newUnit(spec, mod))
		}
		r.clients = append(r.clients, units)
	}
	r.reopen = func(env portus.Env) (*rig, error) {
		path := filepath.Join(outDir, "namespace.img")
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := srv.SaveImage(path); err != nil {
			return nil, err
		}
		defer os.Remove(path)
		r.close(env)
		return newTCPRig(sh, outDir, path)
	}
	return r, nil
}

// newTwinRig is sh on the virtual clock: one compute node with a GPU per
// client, one storage node, stamp-tracked content. Must run inside a
// simulation process.
func newTwinRig(env portus.Env, sh shape) (*rig, error) {
	tb, err := portus.NewTestbed(env, portus.TestbedConfig{
		ComputeNodes: 1, GPUsPerNode: sh.clients, StorageNodes: 1,
	})
	if err != nil {
		return nil, err
	}
	r := simRig(tb)
	for c := 0; c < sh.clients; c++ {
		var units []*unit
		for m := 0; m < sh.models; m++ {
			spec := sh.spec(c, m)
			mod, err := tb.PlaceModelOpts(env, 0, c, spec, portus.ClientOptions{DeltaBlockBytes: sh.block})
			if err != nil {
				return nil, fmt.Errorf("place %s: %w", spec.Name, err)
			}
			units = append(units, sh.newUnit(spec, mod))
		}
		r.clients = append(r.clients, units)
	}
	return r, nil
}

// Sim-tier geometry: the ROADMAP's sharded, replicated tier.
const (
	tierTP, tierPP           = 2, 4 // one shard per GPU
	tierCompute, tierStorage = 2, 4
	tierReplicas             = 2
)

// newTierRig builds the sim-tier workload: the model sharded 2x4 over
// two compute nodes, checkpointed to four storage nodes at RF=2 — once
// as a dense group, once as a sparse group sending block digests. Must
// run inside a simulation process.
func newTierRig(env portus.Env, sh shape) (*rig, error) {
	tb, err := portus.NewTestbed(env, portus.TestbedConfig{
		ComputeNodes: tierCompute, GPUsPerNode: tierTP * tierPP / tierCompute, GPUMemBytes: 48 << 30,
		StorageNodes: tierStorage, Replicas: tierReplicas, PMemBytes: 256 << 30,
	})
	if err != nil {
		return nil, err
	}
	r := simRig(tb)
	var units []*unit
	for _, g := range []struct {
		suffix       string
		block        int64
		restoreEvery int
	}{{"-full", 0, sh.restoreEvery}, {"-delta", sh.block, 2 * sh.restoreEvery}} {
		s := sh.spec(0, 0)
		s.Name += g.suffix
		sm, err := tb.PlaceSharded(env, s, tierTP, tierPP, portus.RouterOptions{
			Replicas: tierReplicas, Client: client.Options{DeltaBlockBytes: g.block},
		})
		if err != nil {
			return nil, fmt.Errorf("place %s: %w", s.Name, err)
		}
		u := &unit{
			name: s.Name, bytes: s.TotalSize(),
			ckpt: sm.Checkpoint, rest: sm.Restore, committed: sm.Committed,
			block: g.block, rate: sh.rate, restoreEvery: g.restoreEvery,
		}
		for i := range sm.Shards() {
			u.placed = append(u.placed, sm.Placed(i))
		}
		units = append(units, u)
	}
	r.clients = [][]*unit{units}
	return r, nil
}

func simRig(tb *portus.Testbed) *rig {
	r := &rig{daemons: tb.Daemons}
	for _, st := range tb.Cluster.Storage {
		r.pmems = append(r.pmems, st.PMem)
	}
	// Stop the daemons' accept loops and workers so the engine drains
	// and the testbed can be collected.
	r.close = func(env portus.Env) {
		for i, st := range tb.Cluster.Storage {
			tb.Net().Shutdown(env, st.Name)
			tb.Daemons[i].Halt(env)
		}
	}
	return r
}

// realWorld runs fn on the wall clock; simWorld runs it as a process of
// a fresh discrete-event engine.
func realWorld(fn func(env portus.Env)) { fn(portus.NewRealEnv()) }

func simWorld(fn func(env portus.Env)) {
	eng := portus.NewSimulation()
	eng.Go("bench", fn)
	eng.Run()
}

// forEachClient runs fn once per client concurrently (goroutines on the
// wall clock, simulation processes otherwise) and waits for all.
func forEachClient(env portus.Env, n int, fn func(env portus.Env, client int)) {
	g := sim.NewGroup(env)
	g.Add(env, n)
	for c := 0; c < n; c++ {
		env.Go(fmt.Sprintf("bench-client%d", c), func(env portus.Env) {
			defer g.Done(env)
			fn(env, c)
		})
	}
	g.Wait(env)
}
