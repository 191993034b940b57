package main

import (
	"fmt"
	"strings"

	"github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/telemetry"
)

// perLayer is what every workload reports with --trace 1. The prefix is
// the module (internal/<name>) the number belongs to; host.* calibrates
// the machine, proc.* and harness.* describe the benchmark process.
// README.md says what each should move. Rows from the workload's own
// traced section come first, the workload-independent probes after.
var perLayer = []metricDef{
	// Where a checkpoint's time goes, from the program's stitched traces
	// (medians per checkpoint, on the program's clock).
	{"client.digest_s", "s"},
	{"client.send_s", "s"},
	{"client.await_s", "s"},
	{"daemon.enqueue_wait_s", "s"},
	{"daemon.pull_s", "s"},
	{"daemon.flush_s", "s"},
	{"daemon.copy_forward_s", "s"},
	{"daemon.commit_s", "s"},
	{"daemon.unattributed_s", "s"},
	{"sched.wait_p50_s", "s"},
	// Counters read around the traced section.
	{"pmem.flush_ops_per_ckpt", "count"},
	{"pmem.flush_bytes_per_logical_byte", "ratio"},
	{"store.space_ratio", "ratio"},
	{"proc.allocs_per_op", "count"},
	{"proc.alloc_mib_per_gib", "MiB/GiB"},
	{"proc.gc_pause_ms", "ms"},
	{"harness.update_cpu_s", "s"},
	{"harness.trace_overhead_ratio", "ratio"},
	{"harness.span_tile_ratio", "ratio"},
	// The workload's shape on the virtual clock.
	{"sim.virt_checkpoint_s", "s"},
	{"sim.virt_delta_checkpoint_s", "s"},
	{"sim.virt_restore_s", "s"},
	{"sim.host_s_per_op", "s"},
	{"sim.delta_host_s_per_op", "s"},
	{"perfmodel.virt_ceiling_fraction", "ratio"},
	{"perfmodel.wall_memcpy_fraction", "ratio"},
	// Probes.
	{"host.memcpy_gib_s", "GiB/s"},
	{"host.loopback_rtt_us", "us"},
	{"host.sleep_6us_actual_us", "us"},
	{"rdma.tcp_read_gib_s", "GiB/s"},
	{"rdma.tcp_write_gib_s", "GiB/s"},
	{"rdma.tcp_read_small_us", "us"},
	{"rdma.tcp_alloc_b_per_read", "B"},
	{"rdma.sim_read_host_ns", "ns"},
	{"rdma.sim_read_allocs", "count"},
	{"memdev.copy_gib_s", "GiB/s"},
	{"memdev.write_gib_s", "GiB/s"},
	{"memdev.stamp_splice_ns", "ns"},
	{"pmem.flush_gib_s", "GiB/s"},
	{"pmem.persist8_ns", "ns"},
	{"datapath.plan_big_us", "us"},
	{"datapath.plan_tiny_us", "us"},
	{"datapath.pull_gib_s", "GiB/s"},
	{"datapath.push_gib_s", "GiB/s"},
	{"datapath.copyforward_gib_s", "GiB/s"},
	{"datapath.pull_vs_parts", "ratio"},
	{"wire.ckpt_roundtrip_us", "us"},
	{"wire.digest_msg_ms", "ms"},
	{"wire.digest_msg_bytes", "B"},
	{"wire.allocs_per_msg", "count"},
	{"delta.threeway_ms", "ms"},
	{"gpu.block_digest_gib_s", "GiB/s"},
	{"index.digest_table_put_ms", "ms"},
	{"index.lookup_us", "us"},
	{"index.lookup_allocs", "count"},
	{"index.commit_us", "us"},
	{"index.create_model_us", "us"},
	{"store.admit_us", "us"},
	{"alloc.alloc_free_ns", "ns"},
	{"sched.submit_next_done_us", "us"},
	{"client.router_fanout_host_us", "us"},
	{"placement.owners_ns", "ns"},
	{"sim.events_per_host_s", "1/s"},
	{"sim.allocs_per_event", "count"},
	{"telemetry.span_ns", "ns"},
	{"telemetry.counter_ns", "ns"},
}

// runTraced is the traced run: one set-up, a third of the time
// untraced, a third with every harness call into the program wrapped in
// a span (their ratio is the tracing overhead), the durability gate,
// the virtual-clock twin, then the layer probes.
func (w workload) runTraced(o options, m *metrics, p probeSize) (attempted, failed int, err error) {
	var plain, traced *section
	var tr *tracer
	var stages, clientSide map[string][]float64
	var schedWait, space float64
	other := newTally()
	unlimit := w.limitProcs()
	w.world(func(env portus.Env) {
		r, _, e := w.setUp(env, o, other)
		if err = e; err != nil {
			return
		}
		plain = measure(env, r, o.seed, w.shuffle, w.stopAfter(o.seconds/3), nil)
		tr = newTracer()
		tr.watch(r.daemons)
		traced = measure(env, r, o.seed, w.shuffle, w.stopAfter(o.seconds/3), tr)

		stages = stageTimes(tr.programTraces(w.primaryUnits(r)), "checkpoint")
		clientSide = clientStages(r.daemons)
		schedWait = schedWaitP50(r.daemons)
		space = spaceRatio(r, traced.after)
		tr.graft(r.daemons)
		finish(env, r, traced.tally)
	})
	unlimit() // the probes run on every P, whatever the workload ran on
	if err != nil {
		return 0, 0, err
	}
	if err = tr.write(o.outDir, w.name); err != nil {
		return 0, 0, err
	}
	virt := traced
	if !w.shape.tier {
		if virt, err = w.twin(o, other); err != nil {
			return 0, 0, err
		}
	}

	primary := w.primaryDelta()
	for _, name := range []string{"digest", "send", "await"} {
		m.set("client."+name+"_s", median(clientSide[name]))
	}
	var attributed float64
	for _, stage := range daemonStages {
		v := median(stages[stage])
		attributed += v
		m.set("daemon."+strings.ReplaceAll(stage, "-", "_")+"_s", v)
	}
	// What the client waited for that no daemon stage span covers:
	// control-plane transit, delta planning, reply, and — for a sharded
	// group — waiting on the slowest shard copy.
	m.set("daemon.unattributed_s", median(virts(traced.ckpt[primary]))-attributed)
	m.set("sched.wait_p50_s", schedWait)

	ckpts := float64(len(traced.ckpt[true]) + len(traced.ckpt[false]))
	moved := float64(traced.ckptBytes+traced.restBytes) / gib
	m.set("pmem.flush_ops_per_ckpt", float64(traced.after.flushOps-traced.before.flushOps)/ckpts)
	m.set("pmem.flush_bytes_per_logical_byte", float64(traced.after.flushBytes-traced.before.flushBytes)/float64(traced.ckptBytes))
	m.set("store.space_ratio", space)
	m.set("proc.allocs_per_op", float64(traced.mem1.Mallocs-traced.mem0.Mallocs)/float64(traced.ops()))
	m.set("proc.alloc_mib_per_gib", float64(traced.mem1.TotalAlloc-traced.mem0.TotalAlloc)/mibBytes/moved)
	m.set("proc.gc_pause_ms", float64(traced.mem1.PauseTotalNs-traced.mem0.PauseTotalNs)/1e6)
	m.set("harness.update_cpu_s", traced.harness)
	m.set("harness.trace_overhead_ratio",
		median(walls(traced.ckpt[primary]))/median(walls(plain.ckpt[primary])))
	m.set("harness.span_tile_ratio", median(tr.tile()))

	vck := median(virts(virt.ckpt[primary]))
	m.set("sim.virt_checkpoint_s", vck)
	m.set("sim.virt_delta_checkpoint_s", median(virts(virt.ckpt[true])))
	m.set("sim.virt_restore_s", median(virts(virt.rest[primary])))
	m.set("sim.host_s_per_op", virt.busy()/float64(virt.ops()))
	m.set("sim.delta_host_s_per_op", median(walls(virt.ckpt[true])))
	m.set("perfmodel.virt_ceiling_fraction", float64(w.unitBytes())/vck/w.virtCeiling())

	memcpy := runProbes(m, p)
	wallGiBs := float64(w.unitBytes()) / gib / median(walls(traced.ckpt[primary]))
	m.set("perfmodel.wall_memcpy_fraction", wallGiBs/memcpy)

	fmt.Printf("# %s traced: %d+%d checkpoints untraced+traced, %d spans in %s/trace-%s.json\n",
		w.name, len(plain.ckpt[primary]), len(traced.ckpt[primary]), len(tr.spans), o.outDir, w.name)
	return plain.attempted + traced.attempted + other.attempted,
		plain.failed + traced.failed + other.failed, nil
}

// primaryUnits names the units the latency percentiles are taken over.
func (w workload) primaryUnits(r *rig) map[string]bool {
	out := make(map[string]bool)
	for _, u := range r.units() {
		if u.delta() == w.primaryDelta() {
			out[u.name] = true
		}
	}
	return out
}

// programTraces returns the daemon halves collected since watch, for
// the named units (a shard's trace counts for its group).
func (tr *tracer) programTraces(units map[string]bool) []*telemetry.Trace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []*telemetry.Trace
	for _, t := range tr.prog {
		if units[groupOf(t.Model)] {
			out = append(out, t)
		}
	}
	return out
}

// schedWaitP50 reads the scheduler's exported checkpoint-class wait
// histogram (the slowest daemon's median).
func schedWaitP50(daemons []*daemon.Daemon) float64 {
	var worst float64
	for _, d := range daemons {
		h := d.Telemetry().Histogram("portus_sched_wait_seconds", "", nil, telemetry.L("class", "checkpoint"))
		if q := h.Quantile(0.5); q > worst {
			worst = q
		}
	}
	return worst
}

// virtCeiling is the most logical checkpoint bytes per second the
// performance model's devices allow the workload's topology: every
// byte crosses a GPU BAR, a compute NIC, a storage NIC and a PMem write
// port, once per replica.
func (w workload) virtCeiling() float64 {
	gpus, compute, storage, replicas := float64(w.shape.clients), 1.0, 1.0, 1.0
	if w.shape.tier {
		gpus, compute, storage, replicas = tierTP*tierPP, tierCompute, tierStorage, tierReplicas
	}
	c := gpus * perfmodel.GPUBARReadBW
	for _, x := range []float64{
		compute * perfmodel.NICBandwidth, storage * perfmodel.NICBandwidth, storage * perfmodel.PMemWriteBW,
	} {
		if x < c {
			c = x
		}
	}
	return c / replicas
}
