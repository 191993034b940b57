package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/portus-sys/portus"
)

// workload is one set of inputs the benchmark runs. All four are closed
// loops: a training job waits for its checkpoint before it trains on.
type workload struct {
	name string
	// why is the one line BENCHMARK.json carries.
	why   string
	shape shape
	// shuffle visits each client's units in a fresh seeded order every
	// round instead of registration order.
	shuffle bool
	// procs, when set, is the GOMAXPROCS the workload runs under.
	procs int
}

// bwSpec is the bandwidth-bound model of tcp-full and tcp-delta: a
// one-layer GPT geometry, 88 MiB in 16 tensors of up to 32 MiB. Few,
// large tensors keep the per-verb costs under 2% of a checkpoint, as
// AlexNet's 16 tensors do in the paper's Table II, at a size that lets a
// run take tens of checkpoints instead of a handful.
func bwSpec(int, int) portus.Spec { return portus.GPT("bw-88m", 1, 1024, 8192, time.Millisecond) }

// tinySpec is tcp-small's model: 292 tensors in 1.5 MiB, so a
// checkpoint is all per-op and per-verb cost.
func tinySpec(client, model int) portus.Spec {
	return portus.GPT(fmt.Sprintf("tiny-%d-%d", client, model), 24, 32, 1000, time.Millisecond)
}

// tierSpec is sim-tier's model, the smallest of the paper's GPT family.
func tierSpec(int, int) portus.Spec {
	spec, err := portus.ModelByName("gpt-1.5b")
	if err != nil {
		panic(err) // the zoo is compiled in
	}
	return spec
}

const deltaBlock = 64 << 10

var workloads = []workload{
	{
		name:  "tcp-full",
		why:   "bandwidth-bound: one client, 88 MiB in 16 tensors over loopback TCP, every byte pulled, flushed, CRC'd; one verified restore per two checkpoints",
		shape: shape{clients: 1, models: 1, spec: bwSpec, restoreEvery: 2},
	},
	{
		name:  "tcp-delta",
		why:   "same 88 MiB protected but 2% of 64 KiB blocks change: digests, three-way diff, copy-forward and CRC do the work and the fabric almost none",
		shape: shape{clients: 1, models: 1, spec: bwSpec, block: deltaBlock, rate: 0.02, restoreEvery: 4},
	},
	{
		name:    "tcp-small",
		why:     "fixed-cost-bound: four clients, four 292-tensor 1.5 MiB models each in seeded order; gob, scheduler, index and per-verb cost dominate, bytes are negligible",
		shape:   shape{clients: 4, models: 4, spec: tinySpec, restoreEvery: 10},
		shuffle: true,
	},
	{
		name:  "sim-tier",
		why:   "virtual clock and simulator host cost: GPT-1.5B sharded 2x4 onto 4 storage nodes at RF=2, dense group plus a 1%-sparse digest group; no real byte moves",
		shape: shape{clients: 1, spec: tierSpec, block: deltaBlock, rate: 0.01, restoreEvery: 1, tier: true},
		// The engine runs one process at a time; on one P every hand-off
		// between simulated processes stays on a thread, which is both
		// faster and far steadier than letting them migrate.
		procs: 1,
	},
}

// limitProcs applies the workload's GOMAXPROCS, if it has one, and
// returns the undo.
func (w workload) limitProcs() func() {
	if w.procs == 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(w.procs)
	return func() { runtime.GOMAXPROCS(prev) }
}

// world runs fn where the workload lives: on the wall clock, or under
// the engine for the simulated tier.
func (w workload) world(fn func(env portus.Env)) {
	if w.shape.tier {
		simWorld(fn)
	} else {
		realWorld(fn)
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type options struct {
	seed    int64
	seconds float64
	outDir  string
	// setups is how many times set-up runs; the median is reported.
	setups int
	// twinOps is how many checkpoints each client of the virtual twin
	// takes.
	twinOps int
}

// base is the first iteration number of a run: the seed picks the
// content patterns and, for sparse units, which blocks go dirty. The
// low 32 bits of the seed are used, leaving 24 bits of ops below them.
func (o options) base() uint64 { return uint64(uint32(o.seed)) << 24 }

func (w workload) build(env portus.Env, o options) (*rig, error) {
	var r *rig
	var err error
	if w.shape.tier {
		r, err = newTierRig(env, w.shape)
	} else {
		r, err = newTCPRig(w.shape, o.outDir, "")
	}
	if err != nil {
		return nil, err
	}
	for _, u := range r.units() {
		u.next = o.base()
	}
	return r, nil
}

// stopAfter ends a client's section once seconds of host time have
// passed and it has taken enough checkpoints that at least one of its
// units was restored.
func (w workload) stopAfter(seconds float64) func(int) bool {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	minOps := w.shape.units() * w.shape.restoreEvery
	if w.shape.tier {
		minOps *= 2 // the sparse group restores half as often
	}
	return func(ops int) bool { return ops >= minOps && !time.Now().Before(deadline) }
}

// setUp builds and warms a rig and says how many seconds that took.
func (w workload) setUp(env portus.Env, o options, t *tally) (*rig, float64, error) {
	t0 := time.Now()
	r, err := w.build(env, o)
	if err != nil {
		return nil, 0, err
	}
	warm(env, r, t)
	return r, time.Since(t0).Seconds(), nil
}

// finish runs the durability gate on r and closes whatever is left.
func finish(env portus.Env, r *rig, t *tally) {
	for _, u := range r.units() {
		u.remember()
	}
	if r = durability(env, r, t); r != nil {
		r.close(env)
	}
}

// runEndToEnd is the untraced run: set-up several times, one measured
// section on the last rig, the durability gate, and the shape's
// virtual-clock twin.
func (w workload) runEndToEnd(o options, m *metrics) (attempted, failed int, err error) {
	var setups []float64
	var sec *section
	var live, rss float64
	other := newTally() // ops outside the measured section
	defer w.limitProcs()()
	for i := 0; i < o.setups && err == nil; i++ {
		w.world(func(env portus.Env) {
			r, took, e := w.setUp(env, o, other)
			if err = e; err != nil {
				return
			}
			setups = append(setups, took)
			if i < o.setups-1 {
				r.close(env)
				return
			}
			sec = measure(env, r, o.seed, w.shuffle, w.stopAfter(o.seconds), nil)
			live = spaceRatio(r, sec.after)
			// Before the durability gate: its crash copies and second
			// server are the harness's memory, not the workload's.
			rss = peakRSSMiB()
			finish(env, r, sec.tally)
		})
		// Drop the torn-down rig before the next one allocates, so peak
		// RSS is one rig's, not the sum.
		runtime.GC()
	}
	if err != nil {
		return 0, 0, err
	}
	virt := sec
	if !w.shape.tier {
		if virt, err = w.twin(o, other); err != nil {
			return 0, 0, err
		}
	}

	primary := w.primaryDelta()
	ck, rs := walls(sec.ckpt[primary]), walls(sec.rest[primary])
	m.set("setup_s", median(setups))
	m.set("checkpoint_p50_s", median(ck))
	m.set("checkpoint_tail_s", quantile(ck, tailQuantile(len(ck))))
	m.set("restore_p50_s", median(rs))
	m.set("ops_per_s", float64(sec.ops())/sec.busy())
	m.set("cpu_s_per_gib", sec.sysCPU()/(float64(sec.ckptBytes+sec.restBytes)/gib))
	m.set("cpu_ms_per_op", 1e3*sec.sysCPU()/float64(sec.ops()))
	m.set("peak_rss_mib", rss)
	m.set("fabric_byte_ratio", float64(sec.after.pulled-sec.before.pulled)/float64(sec.ckptBytes))
	m.set("pmem_space_ratio", live)
	unitGiB := float64(w.unitBytes()) / gib
	m.set("virt_checkpoint_gib_s", unitGiB/median(virts(virt.ckpt[primary])))
	m.set("virt_restore_gib_s", unitGiB/median(virts(virt.rest[primary])))

	fmt.Printf("# %s: %d checkpoints (tail = p%.0f), %d restores in %.2fs; %d set-ups %.3gs\n",
		w.name, len(ck), 100*tailQuantile(len(ck)), len(rs), sec.wall, len(setups), setups)
	return sec.attempted + other.attempted, sec.failed + other.failed, nil
}

// twin runs the workload's shape on the virtual clock: a single-node
// simulated testbed, a fixed number of ops, deterministic.
func (w workload) twin(o options, t *tally) (sec *section, err error) {
	simWorld(func(env portus.Env) {
		var r *rig
		if r, err = newTwinRig(env, w.shape); err != nil {
			return
		}
		for _, u := range r.units() {
			u.next = o.base()
		}
		warm(env, r, t)
		// Round-robin even where the TCP run shuffles: which client's
		// request meets which on the shared storage node would otherwise
		// move the virtual medians with the seed.
		sec = measure(env, r, o.seed, false, func(ops int) bool { return ops >= o.twinOps }, nil)
		r.close(env)
		t.attempted += sec.attempted
		t.failed += sec.failed
	})
	return sec, err
}

// primaryDelta says which class of unit the latency percentiles are
// taken over: the workload's own on the TCP shapes; the dense group on
// sim-tier, whose sparse group shows in throughput, CPU and byte ratios
// (its latency is a per-layer metric).
func (w workload) primaryDelta() bool { return !w.shape.tier && w.shape.block > 0 }

func (w workload) unitBytes() int64 { return w.shape.spec(0, 0).TotalSize() }

// spaceRatio is store live bytes per byte of logical model state.
func spaceRatio(r *rig, c counters) float64 {
	var logical int64
	for _, u := range r.units() {
		logical += u.bytes
	}
	return float64(c.live) / float64(logical)
}
