package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/alloc"
	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/datapath"
	"github.com/portus-sys/portus/internal/delta"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/placement"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sched"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/store"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// The layer probes time single layers through their public functions,
// on rigs with nothing else attached. They do not depend on the
// workload: a traced run of any workload reports the same probes, so a
// slow machine shows in the host.* rows instead of being read as a
// regression.

const mibBytes = 1 << 20

// cost is what one call of a probed function costs.
type cost struct{ sec, allocs, bytes float64 }

// perCall runs fn in `batches` batches of n calls and returns the median
// batch's seconds per call, with allocations averaged over all calls.
func perCall(batches, n int, fn func()) cost {
	fn() // first call pays lazy set-up
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = time.Since(t0).Seconds() / float64(n)
	}
	runtime.ReadMemStats(&ms1)
	calls := float64(batches * n)
	return cost{
		sec:    median(per),
		allocs: float64(ms1.Mallocs-ms0.Mallocs) / calls,
		bytes:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / calls,
	}
}

// gibPerSec is the rate of moving n bytes in sec seconds.
func gibPerSec(n int64, sec float64) float64 { return float64(n) / gib / sec }

// scale shrinks probe repetitions for the smoke test.
type probeSize struct{ short bool }

func (p probeSize) n(full int) int {
	if p.short {
		return 2
	}
	return full
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench probe: %v", err))
	}
}

// runProbes emits every probe metric into m and returns the two rates
// derived metrics are taken against.
func runProbes(m *metrics, p probeSize) (memcpyGiBs float64) {
	memcpyGiBs = probeHost(m, p)
	readGiBs := probeRDMA(m, p)
	probeMemdev(m, p)
	flushGiBs := probePMem(m, p)
	probeDatapath(m, p, readGiBs, flushGiBs)
	probeWire(m, p)
	probeDelta(m, p)
	probeIndex(m, p)
	probeSched(m, p)
	probeSim(m, p)
	probeTelemetry(m, p)
	return memcpyGiBs
}

// probeHost calibrates the machine: nothing in the repository can move
// these, so a run where they moved is a different machine state.
func probeHost(m *metrics, p probeSize) float64 {
	src, dst := make([]byte, 32*mibBytes), make([]byte, 32*mibBytes)
	for i := range src {
		src[i] = byte(i)
	}
	c := perCall(5, p.n(8), func() { copy(dst, src) })
	memcpy := gibPerSec(int64(len(src)), c.sec)
	m.set("host.memcpy_gib_s", memcpy)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c) // echo until the dialer hangs up
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	must(err)
	defer conn.Close()
	var b [1]byte
	c = perCall(5, p.n(400), func() {
		_, err := conn.Write(b[:])
		must(err)
		_, err = io.ReadFull(conn, b[:])
		must(err)
	})
	m.set("host.loopback_rtt_us", c.sec*1e6)

	c = perCall(5, p.n(100), func() { time.Sleep(perfmodel.RDMAReadIssueCost) })
	m.set("host.sleep_6us_actual_us", c.sec*1e6)
	return memcpy
}

// tcpPair is two nodes served by one TCP fabric; the client's holds a
// filled, materialized GPU device registered whole.
type tcpPair struct {
	env            *sim.RealEnv
	fabric         *rdma.TCPFabric
	server, client *rdma.Node
	gpu            *memdev.Device
	gpuMR          rdma.MR
}

func newTCPPair(gpuBytes int64) *tcpPair {
	env := sim.NewRealEnv()
	t := &tcpPair{
		env: env, fabric: rdma.NewTCPFabric(env),
		server: rdma.NewNode(env, "server"), client: rdma.NewNode(env, "client"),
		gpu: memdev.New("gpu", memdev.GPU, gpuBytes, true),
	}
	_, err := t.fabric.Serve(t.server, "")
	must(err)
	_, err = t.fabric.Serve(t.client, "")
	must(err)
	gpu.FillRegion(t.gpu, 0, gpuBytes, 1)
	t.gpuMR = t.client.RegisterMR(env, t.gpu, 0, gpuBytes)
	return t
}

func (t *tcpPair) remote(n int64) rdma.RemoteSlice {
	return rdma.RemoteSlice{MR: rdma.RemoteMR{Node: "client", RKey: t.gpuMR.RKey, Len: t.gpuMR.Len}, Len: n}
}

func probeRDMA(m *metrics, p probeSize) (readGiBs float64) {
	t := newTCPPair(mibBytes)
	defer t.fabric.Close()
	pmMR := t.server.RegisterMR(t.env, memdev.New("pm", memdev.PMEM, mibBytes, true), 0, mibBytes)
	read := func(n int64) func() {
		return func() {
			must(t.fabric.Read(t.env, t.server, rdma.Slice{MR: pmMR, Len: n}, t.remote(n)))
		}
	}
	c := perCall(5, p.n(64), read(mibBytes))
	readGiBs = gibPerSec(mibBytes, c.sec)
	m.set("rdma.tcp_read_gib_s", readGiBs)
	m.set("rdma.tcp_alloc_b_per_read", c.bytes)
	c = perCall(5, p.n(64), func() {
		must(t.fabric.Write(t.env, t.server, rdma.Slice{MR: pmMR, Len: mibBytes}, t.remote(mibBytes)))
	})
	m.set("rdma.tcp_write_gib_s", gibPerSec(mibBytes, c.sec))
	c = perCall(5, p.n(400), read(4096))
	m.set("rdma.tcp_read_small_us", c.sec*1e6)

	// One-sided reads under the engine: what a simulated pull costs the
	// host per verb.
	const reads = 64
	c = perCall(5, p.n(4), func() {
		simWorld(func(env portus.Env) {
			f := rdma.NewSimFabric()
			server, cl := rdma.NewNode(env, "server"), rdma.NewNode(env, "client")
			f.AddNode(server)
			f.AddNode(cl)
			g := memdev.New("gpu", memdev.GPU, 1<<30, false)
			pm := memdev.New("pm", memdev.PMEM, 1<<30, false)
			g.WriteStamp(0, 4*mibBytes, 1)
			rmr := cl.RegisterMR(env, g, 0, 4*mibBytes)
			lmr := server.RegisterMR(env, pm, 0, 4*mibBytes)
			for i := 0; i < reads; i++ {
				must(f.Read(env, server, rdma.Slice{MR: lmr, Len: 4 * mibBytes},
					rdma.RemoteSlice{MR: rdma.RemoteMR{Node: "client", RKey: rmr.RKey, Len: 4 * mibBytes}, Len: 4 * mibBytes}))
			}
		})
	})
	m.set("rdma.sim_read_host_ns", c.sec*1e9/reads)
	m.set("rdma.sim_read_allocs", c.allocs/reads)
	return readGiBs
}

// Digest-table scale of GPT-1.5B at 64 KiB blocks, the size the delta
// layers are probed at.
const (
	probeBlocks = 95_000
	probeBlock  = 64 << 10
)

func probeMemdev(m *metrics, p probeSize) {
	const n = 32 * mibBytes
	a, b := memdev.New("a", memdev.PMEM, n, true), memdev.New("b", memdev.PMEM, n, true)
	buf := gpu.Pattern(n, 1)
	c := perCall(5, p.n(8), func() { a.Write(0, buf) })
	m.set("memdev.write_gib_s", gibPerSec(n, c.sec))
	c = perCall(5, p.n(8), func() { memdev.Copy(b, 0, a, 0, n) })
	m.set("memdev.copy_gib_s", gibPerSec(n, c.sec))

	// A virtual device fragmented into one stamp per block, then sparse
	// batches of 1% of the blocks: the write shape of a sparse optimizer
	// step on a device that has seen many.
	blocks := probeBlocks
	if p.short {
		blocks = 1000
	}
	v := memdev.New("v", memdev.GPU, int64(blocks)*probeBlock, false)
	all := make([]memdev.StampRegion, blocks)
	for i := range all {
		all[i] = memdev.StampRegion{Off: int64(i) * probeBlock, N: probeBlock, Stamp: uint64(i) + 1}
	}
	v.WriteStampBatch(all)
	sparse := make([]memdev.StampRegion, 0, blocks/100)
	for i := 0; i < blocks; i += 100 {
		sparse = append(sparse, all[i])
	}
	gen := uint64(blocks)
	c = perCall(5, p.n(8), func() {
		gen++
		for i := range sparse {
			sparse[i].Stamp = gen + uint64(i)<<32
		}
		v.WriteStampBatch(sparse)
	})
	m.set("memdev.stamp_splice_ns", c.sec*1e9/float64(len(sparse)))
}

func probePMem(m *metrics, p probeSize) (flushGiBs float64) {
	const n = 32 * mibBytes
	pm := pmem.New(pmem.Config{Name: "pm", DataSize: n, MetaSize: mibBytes, Materialized: true})
	pm.Data().Write(0, gpu.Pattern(n, 2))
	c := perCall(5, p.n(8), func() { pm.FlushData(0, n) })
	flushGiBs = gibPerSec(n, c.sec)
	m.set("pmem.flush_gib_s", flushGiBs)
	c = perCall(5, p.n(2000), func() { pm.Persist8(64) })
	m.set("pmem.persist8_ns", c.sec*1e9)
	return flushGiBs
}

// probeDatapath runs the transfer engine on a bare rdma+pmem rig — no
// daemon, no scheduler, no index — over the bandwidth-bound model's
// tensor layout.
func probeDatapath(m *metrics, p probeSize, readGiBs, flushGiBs float64) {
	ranges := func(spec portus.Spec, base int64) ([]datapath.TensorRange, int64) {
		out := make([]datapath.TensorRange, len(spec.Tensors))
		off := base
		for i, tm := range spec.Tensors {
			out[i] = datapath.TensorRange{Name: tm.Name, PMemOff: off, Size: tm.Size}
			off += tm.Size
		}
		return out, off - base
	}
	big := bwSpec(0, 0)
	if p.short {
		big = tinySpec(0, 0)
	}
	slot0, total := ranges(big, 0)
	slot1, _ := ranges(big, total)
	c := perCall(5, p.n(200), func() { datapath.NewPlan(slot0, 0) })
	m.set("datapath.plan_big_us", c.sec*1e6)
	tiny, _ := ranges(tinySpec(0, 0), 0)
	c = perCall(5, p.n(200), func() { datapath.NewPlan(tiny, 0) })
	m.set("datapath.plan_tiny_us", c.sec*1e6)

	t := newTCPPair(total)
	defer t.fabric.Close()
	pm := pmem.New(pmem.Config{Name: "pm", DataSize: 2 * total, MetaSize: mibBytes, Materialized: true})
	pmMR := t.server.RegisterMR(t.env, pm.Data(), 0, 2*total)
	cx := &datapath.Context{Fabric: t.fabric, Local: t.server, LocalMR: pmMR}
	for _, r := range slot0 {
		mr := t.client.RegisterMR(t.env, t.gpu, r.PMemOff, r.Size)
		cx.Remote = append(cx.Remote, rdma.RemoteMR{Node: "client", RKey: mr.RKey, Len: mr.Len})
	}
	eng := datapath.New(datapath.Config{
		Lanes:     rdma.ConnectLanes(t.env, t.server, 1),
		IssueCost: perfmodel.RDMAReadIssueCost,
		Flush:     func(off, n int64) error { pm.FlushData(off, n); return nil },
	})
	plan := datapath.NewPlan(slot0, 0)
	c = perCall(3, p.n(3), func() {
		_, err := eng.Pull(t.env, cx, plan, &telemetry.Span{})
		must(err)
	})
	pull := gibPerSec(total, c.sec)
	m.set("datapath.pull_gib_s", pull)
	c = perCall(3, p.n(3), func() {
		_, err := eng.Push(t.env, cx, plan, &telemetry.Span{})
		must(err)
	})
	m.set("datapath.push_gib_s", gibPerSec(total, c.sec))
	spans := make([]datapath.CopySpan, len(slot0))
	for i := range spans {
		spans[i] = datapath.CopySpan{Name: slot0[i].Name, DstOff: slot1[i].PMemOff, SrcOff: slot0[i].PMemOff, Size: slot0[i].Size}
	}
	data := pm.Data()
	c = perCall(3, p.n(3), func() {
		_, err := eng.CopyForward(t.env, cx, spans, func(dst, src, n int64) error {
			memdev.Copy(data, dst, data, src, n)
			return nil
		}, &telemetry.Span{})
		must(err)
	})
	m.set("datapath.copyforward_gib_s", gibPerSec(total, c.sec))
	// A pull is a fabric read then a flush; the slower part is its
	// ceiling at pipeline depth 1 only if the other were free.
	parts := readGiBs
	if flushGiBs < parts {
		parts = flushGiBs
	}
	m.set("datapath.pull_vs_parts", pull/parts)
}

// countingConn counts what the gob control plane writes.
type countingConn struct {
	net.Conn
	written int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.written += int64(len(p))
	return c.Conn.Write(p)
}

func probeWire(m *metrics, p probeSize) {
	env := sim.NewRealEnv()
	a, b := net.Pipe()
	cc := &countingConn{Conn: a}
	cl, srv := wire.NewNetConn(cc), wire.NewNetConn(b)
	defer cl.Close()
	defer srv.Close()
	go func() { // the daemon's half: every request gets a DONE
		for {
			req, err := srv.Recv(env)
			if err != nil {
				return
			}
			if srv.Send(env, &wire.Msg{Type: wire.TCheckpointDone, Model: req.Model, Iteration: req.Iteration}) != nil {
				return
			}
		}
	}()
	roundTrip := func(req *wire.Msg) func() {
		return func() {
			must(cl.Send(env, req))
			_, err := cl.Recv(env)
			must(err)
		}
	}
	c := perCall(5, p.n(400), roundTrip(&wire.Msg{Type: wire.TDoCheckpoint, Model: "m", Iteration: 1, TraceID: 1, SpanID: 2}))
	m.set("wire.ckpt_roundtrip_us", c.sec*1e6)

	digests := make([]uint64, probeBlocks)
	for i := range digests {
		digests[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	req := &wire.Msg{Type: wire.TDoCheckpoint, Model: "m", Iteration: 1, Digests: digests, DeltaBlock: probeBlock}
	roundTrip(req)() // gob ships type descriptors on first use
	before := cc.written
	c = perCall(5, p.n(4), roundTrip(req))
	m.set("wire.digest_msg_ms", c.sec*1e3)
	m.set("wire.digest_msg_bytes", float64(cc.written-before)/float64(5*p.n(4)+1))
	m.set("wire.allocs_per_msg", c.allocs)
}

func probeDelta(m *metrics, p probeSize) {
	blocks := probeBlocks
	if p.short {
		blocks = 1000
	}
	sizes := []int64{int64(blocks) * probeBlock}
	active := make([]uint64, blocks)
	for i := range active {
		active[i] = uint64(i) + 1
	}
	target := append([]uint64(nil), active...)
	incoming := append([]uint64(nil), active...)
	for i := 0; i < blocks; i += 100 { // 1% dirty
		incoming[i] = ^active[i]
	}
	for i := 50; i < blocks; i += 100 { // 1% stale in the target slot
		target[i] = ^active[i]
	}
	c := perCall(5, p.n(8), func() { delta.ThreeWay(sizes, probeBlock, incoming, active, target) })
	m.set("delta.threeway_ms", c.sec*1e3)

	spec := bwSpec(0, 0)
	if p.short {
		spec = tinySpec(0, 0)
	}
	g := gpu.New("gpu", spec.TotalSize()+mibBytes, true)
	placed, err := gpu.Place(g, spec)
	must(err)
	c = perCall(3, p.n(3), func() { placed.BlockDigests(probeBlock) })
	m.set("gpu.block_digest_gib_s", gibPerSec(spec.TotalSize(), c.sec))

	pm := pmem.New(pmem.Config{Name: "pm", DataSize: 4 * sizes[0], MetaSize: 64 * mibBytes})
	st, err := index.Format(pm, 64)
	must(err)
	mod, err := st.CreateModel("m", []index.TensorMeta{{Name: "w", DType: index.F32, Dims: []int64{sizes[0] / 4}, Size: sizes[0]}})
	must(err)
	tbl := &delta.Table{BlockBytes: probeBlock, Layout: delta.LayoutHash(sizes, probeBlock), Digests: incoming}
	slot := 0
	c = perCall(5, p.n(4), func() {
		tbl.Iteration++
		slot ^= 1
		must(st.DeltaPut(mod, slot, tbl))
	})
	m.set("index.digest_table_put_ms", c.sec*1e3)
}

func tinyTensors() []index.TensorMeta { return tinySpec(0, 0).Tensors }

func probeIndex(m *metrics, p probeSize) {
	const models = 32
	fresh := func() *pmem.Device {
		return pmem.New(pmem.Config{Name: "pm", DataSize: 1 << 40, MetaSize: 64 * mibBytes})
	}
	st, err := index.Format(fresh(), 4096)
	must(err)
	i := 0
	c := perCall(5, p.n(models/4), func() {
		_, err := st.CreateModel(fmt.Sprintf("m%d", i), tinyTensors())
		must(err)
		i++
	})
	m.set("index.create_model_us", c.sec*1e6)
	created := i
	c = perCall(5, p.n(200), func() {
		_, err := st.Lookup(fmt.Sprintf("m%d", i%created))
		must(err)
		i++
	})
	m.set("index.lookup_us", c.sec*1e6)
	m.set("index.lookup_allocs", c.allocs)
	mod, err := st.Lookup("m0")
	must(err)
	it := uint64(0)
	c = perCall(5, p.n(2000), func() {
		it++
		slot := mod.TargetSlot()
		mod.SetActive(slot, it)
		mod.SetDoneCRC(slot, it, time.Unix(0, 0), it)
	})
	m.set("index.commit_us", c.sec*1e6)

	eng, err := store.Open(store.Config{PMem: fresh(), TableCap: 4096})
	must(err)
	c = perCall(5, p.n(models/4), func() {
		_, err := eng.CreateModel(fmt.Sprintf("m%d", i), tinyTensors())
		must(err)
		i++
	})
	m.set("store.admit_us", c.sec*1e6)

	pm := pmem.New(pmem.Config{Name: "pm", DataSize: 1 << 30, MetaSize: 8 * mibBytes})
	al, err := alloc.Format(pm, 0, 4*mibBytes)
	must(err)
	c = perCall(5, p.n(2000), func() {
		off, err := al.Allocate(4096)
		must(err)
		must(al.Free(off))
	})
	m.set("alloc.alloc_free_ns", c.sec*1e9)
}

func probeSched(m *metrics, p probeSize) {
	env := sim.NewRealEnv()
	s := sched.New(env, sched.Config{})
	it := uint64(0)
	c := perCall(5, p.n(2000), func() {
		it++
		t := &sched.Task{Model: "m", Class: sched.ClassCheckpoint, Iteration: it, EnqueuedAt: env.Now()}
		if r := s.Submit(env, t); r.Verdict != sched.Admitted {
			panic("bench probe: scheduler refused a lone task")
		}
		got, ok := s.Next(env)
		if !ok {
			panic("bench probe: scheduler closed")
		}
		s.Done(env, got)
	})
	m.set("sched.submit_next_done_us", c.sec*1e6)
}

// probeSim measures the simulator's own host cost: the dispatch loop,
// the placement hash, and the router issuing a replicated group
// checkpoint of 8 small shards.
func probeSim(m *metrics, p probeSize) {
	const events = 20000
	c := perCall(5, p.n(4), func() {
		simWorld(func(env portus.Env) {
			for i := 0; i < events; i++ {
				env.Sleep(time.Microsecond)
			}
		})
	})
	m.set("sim.events_per_host_s", events/c.sec)
	m.set("sim.allocs_per_event", c.allocs/events)

	nodes := make([]placement.Node, 4)
	for i := range nodes {
		nodes[i] = placement.Node{Name: fmt.Sprintf("storage%d", i), Weight: 1 << 40}
	}
	pmap, err := placement.New(nodes...)
	must(err)
	i := 0
	c = perCall(5, p.n(2000), func() {
		pmap.Owners(fmt.Sprintf("gpt/mp_rank_%02d", i&15), 2)
		i++
	})
	m.set("placement.owners_ns", c.sec*1e9)

	var issue []float64
	simWorld(func(env portus.Env) {
		tb, err := portus.NewTestbed(env, portus.TestbedConfig{ComputeNodes: 2, GPUsPerNode: 4, StorageNodes: 4, Replicas: 2})
		must(err)
		sm, err := tb.PlaceSharded(env, tinySpec(0, 0), 2, 4, portus.RouterOptions{Replicas: 2, Client: client.Options{}})
		must(err)
		for it := uint64(1); it <= uint64(p.n(40)); it++ {
			sm.ApplyUpdate(it)
			t0 := time.Now()
			gc, err := sm.CheckpointAsync(env, it)
			issue = append(issue, time.Since(t0).Seconds())
			must(err)
			must(gc.Wait(env))
		}
		simRig(tb).close(env)
	})
	m.set("client.router_fanout_host_us", median(issue)*1e6)
}

func probeTelemetry(m *metrics, p probeSize) {
	root := &telemetry.Span{Name: "root"}
	c := perCall(5, p.n(2000), func() {
		root.Children = root.Children[:0]
		root.Child("stage", 1).EndAt(2)
	})
	m.set("telemetry.span_ns", c.sec*1e9)
	ctr := telemetry.NewRegistry().Counter("probe_total", "probe")
	c = perCall(5, p.n(20000), func() { ctr.Add(1) })
	m.set("telemetry.counter_ns", c.sec*1e9)
}
