package datapath_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/datapath"
	"github.com/portus-sys/portus/internal/faults"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

// tcpRig is the datapath rig over the real soft-RDMA fabric: the client
// node's agent serves materialized GPU memory on loopback, and the
// storage node pulls into (and pushes from) a materialized PMem zone.
type tcpRig struct {
	env     sim.Env
	fabric  *rdma.TCPFabric
	gpu, pm *memdev.Device
	cx      *datapath.Context
	tensors []datapath.TensorRange
}

func newTCPRig(t *testing.T, sizes []int64) *tcpRig {
	t.Helper()
	env := sim.NewRealEnv()
	f := rdma.NewTCPFabric(env)
	t.Cleanup(f.Close)
	client, storage := rdma.NewNode(env, "client"), rdma.NewNode(env, "storage")
	if _, err := f.Serve(client, ""); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range sizes {
		total += s
	}
	r := &tcpRig{
		env: env, fabric: f,
		gpu: memdev.New("gpu0", memdev.GPU, total, true),
		pm:  memdev.New("pmem0", memdev.PMEM, total, true),
	}
	gpu.FillRegion(r.gpu, 0, total, 5)
	var remote []rdma.RemoteMR
	var off int64
	for i, s := range sizes {
		mr := client.RegisterMR(env, r.gpu, off, s)
		remote = append(remote, rdma.RemoteMR{Node: "client", RKey: mr.RKey, Len: s})
		r.tensors = append(r.tensors, datapath.TensorRange{Name: fmt.Sprintf("t%d", i), PMemOff: off, Size: s})
		off += s
	}
	r.cx = &datapath.Context{Fabric: f, Local: storage, LocalMR: storage.RegisterMR(env, r.pm, 0, total), Remote: remote}
	return r
}

func (r *tcpRig) engine(maxAttempts int) *datapath.Engine {
	return datapath.New(datapath.Config{Retry: datapath.RetryPolicy{MaxAttempts: maxAttempts, Backoff: 10 * time.Microsecond}})
}

// scriptPoster fails the ops aimed at chunks listed in fails (by PMem
// offset), once per listed error, without sending them, and passes the
// rest to the TCP fabric; it counts the lists posted.
type scriptPoster struct {
	rdma.Poster
	fails map[int64]int
	lists int
}

var errScripted = errors.New("scripted completion error")

func (p *scriptPoster) PostList(env sim.Env, local *rdma.Node, write bool, ops []rdma.Op, done func(i int, err error)) {
	p.lists++
	for i, o := range ops {
		if p.fails[o.L.Off] > 0 {
			p.fails[o.L.Off]--
			done(i, errScripted)
			continue
		}
		p.Poster.PostList(env, local, write, ops[i:i+1], func(_ int, err error) { done(i, err) })
	}
}

// TestPostedRunRetriesAChunk: over real sockets, in both directions, a
// single-lane run posts its chunks as lists; the middle chunk fails
// twice, is re-posted after each backoff, and lands. The run reports
// exactly those two retries, every byte is identical, and the chunk
// spans tile each posted list.
func TestPostedRunRetriesAChunk(t *testing.T) {
	for _, dir := range []string{"pull", "push"} {
		r := newTCPRig(t, []int64{64 << 10, 64 << 10, 64 << 10})
		mid := r.tensors[1].PMemOff
		sp := &scriptPoster{Poster: r.fabric, fails: map[int64]int{mid: 2}}
		r.cx.Fabric = sp
		run := r.engine(5).Pull
		src, dst := r.gpu, r.pm
		if dir == "push" {
			gpu.FillRegion(r.pm, 0, r.pm.Size(), 9)
			run, src, dst = r.engine(5).Push, r.pm, r.gpu
		}
		root := &telemetry.Span{Name: "op"}
		res, err := run(r.env, r.cx, datapath.NewPlan(r.tensors, 0), root)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if res.Retries != 2 || res.Chunks != 3 || res.Bytes != src.Size() {
			t.Fatalf("%s: result = %+v, want 2 retries over 3 chunks", dir, res)
		}
		if sp.lists != 3 {
			t.Fatalf("%s: %d lists posted, want the plan then two re-posts", dir, sp.lists)
		}
		if !bytes.Equal(dst.Bytes(0, dst.Size()), src.Bytes(0, src.Size())) {
			t.Fatalf("%s: bytes differ after the healed run", dir)
		}
		stage := root.Find(dir)
		if len(stage.Children) != 5 {
			t.Fatalf("%s: %d chunk spans, want 3 + 2 failed tries", dir, len(stage.Children))
		}
		for i, c := range stage.Children[1:3] { // the first list: t1 fails, t2 lands
			if prev := stage.Children[i]; c.Start != prev.End {
				t.Fatalf("%s: span %s starts at %v, previous ended at %v", dir, c.Name, c.Start, prev.End)
			}
		}
		if last := stage.Children[4]; last.Attrs["attempt"] != "3" {
			t.Fatalf("%s: the landed retry's span = %+v, want attempt 3", dir, last)
		}
	}
}

// TestPostedRunExhaustsBudget: a chunk that fails MaxAttempts times in
// a row fails the run with the per-tensor message of the inline path.
func TestPostedRunExhaustsBudget(t *testing.T) {
	for _, dir := range []string{"pull", "push"} {
		r := newTCPRig(t, []int64{8 << 10, 8 << 10, 8 << 10})
		r.cx.Fabric = &scriptPoster{Poster: r.fabric, fails: map[int64]int{r.tensors[1].PMemOff: 3}}
		run, want := r.engine(3).Pull, "pulling t1: "+errScripted.Error()
		if dir == "push" {
			run, want = r.engine(3).Push, "restoring t1: "+errScripted.Error()
		}
		_, err := run(r.env, r.cx, datapath.NewPlan(r.tensors, 0), nil)
		if err == nil || err.Error() != want || !errors.Is(err, errScripted) {
			t.Fatalf("%s: err = %v, want %q", dir, err, want)
		}
	}
}

// TestPostedRunUnderReadFaults: the fault injector forwards list posting,
// so a TCP pull under a 20% read-fault rate posts lists, retries the
// faulted chunks in later lists, and lands every byte.
func TestPostedRunUnderReadFaults(t *testing.T) {
	sizes := make([]int64, 64)
	for i := range sizes {
		sizes[i] = 4 << 10
	}
	r := newTCPRig(t, sizes)
	inj := faults.NewInjector(faults.Config{Seed: 7, Read: faults.Rule{Rate: 0.2}})
	r.cx.Fabric = inj.Fabric(rdma.Instrument("tcp", r.fabric, telemetry.NewRegistry()))
	if rdma.PosterOf(r.cx.Fabric) == nil {
		t.Fatal("the fault-injecting wrapper hides the TCP fabric's list posting")
	}
	res, err := r.engine(12).Pull(r.env, r.cx, datapath.NewPlan(r.tensors, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Retries) != inj.Injected(faults.SiteRead) || res.Retries == 0 {
		t.Fatalf("%d retries for %d injected faults", res.Retries, inj.Injected(faults.SiteRead))
	}
	if !bytes.Equal(r.pm.Bytes(0, r.pm.Size()), r.gpu.Bytes(0, r.gpu.Size())) {
		t.Fatal("bytes differ after the faulted pull")
	}
}
