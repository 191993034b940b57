package datapath_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/portus-sys/portus/internal/datapath"
	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

// Property (satellite of the datapath refactor): for any tensor layout
// and any chunk size, the plan's chunks exactly cover every tensor
// extent — contiguous from offset zero, no overlap, no gap — respect
// the chunk-size bound, and address PMem consistently with the tensor
// base.
func TestPlanExactCoverProperty(t *testing.T) {
	prop := func(sizes []uint32, chunkKiB uint16) bool {
		if len(sizes) > 32 {
			sizes = sizes[:32]
		}
		tensors := make([]datapath.TensorRange, len(sizes))
		var off int64
		for i, s := range sizes {
			sz := int64(s % (8 << 20)) // cap at 8 MiB per tensor
			tensors[i] = datapath.TensorRange{Name: fmt.Sprintf("t%d", i), PMemOff: off, Size: sz}
			off += sz
		}
		chunk := int64(chunkKiB) * 1024
		p := datapath.NewPlan(tensors, chunk)
		bound := chunk
		if bound > 0 && bound < perfmodel.MinChunk {
			bound = perfmodel.MinChunk
		}
		next := make([]int64, len(tensors))
		var total int64
		for _, c := range p.Chunks {
			if c.Tensor < 0 || c.Tensor >= len(tensors) {
				return false
			}
			tr := tensors[c.Tensor]
			if c.TensorOff != next[c.Tensor] { // contiguous: no overlap, no gap
				return false
			}
			if c.PMemOff != tr.PMemOff+c.TensorOff {
				return false
			}
			if c.Len < 0 || (bound > 0 && c.Len > bound) {
				return false
			}
			next[c.Tensor] += c.Len
			total += c.Len
		}
		for i, tr := range tensors {
			if next[i] != tr.Size { // exact cover
				return false
			}
		}
		return total == p.Bytes
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// rig is a minimal two-node fabric: tensors on a client GPU device,
// a PMem-like data zone on the storage node.
type rig struct {
	gpu, pm *memdev.Device
	storage *rdma.Node
	cx      *datapath.Context
	tensors []datapath.TensorRange

	flushedBytes int64
	flushCalls   int
}

// newRig lays out the given tensor sizes back to back on both devices
// and registers one remote MR per tensor, as the daemon does.
func newRig(env sim.Env, materialized bool, sizes []int64) *rig {
	var total int64
	for _, s := range sizes {
		total += s
	}
	fabric := rdma.NewSimFabric()
	client := rdma.NewNode(env, "client")
	storage := rdma.NewNode(env, "storage")
	fabric.AddNode(client)
	fabric.AddNode(storage)
	r := &rig{
		gpu:     memdev.New("gpu0", memdev.GPU, total, materialized),
		pm:      memdev.New("pmem0", memdev.PMEM, total, materialized),
		storage: storage,
	}
	var remote []rdma.RemoteMR
	var off int64
	for i, s := range sizes {
		mr := client.RegisterMR(env, r.gpu, off, s)
		remote = append(remote, rdma.RemoteMR{Node: "client", RKey: mr.RKey, Len: s})
		r.tensors = append(r.tensors, datapath.TensorRange{Name: fmt.Sprintf("t%d", i), PMemOff: off, Size: s})
		off += s
	}
	r.cx = &datapath.Context{
		Fabric:  fabric,
		Local:   storage,
		LocalMR: storage.RegisterMR(env, r.pm, 0, total),
		Remote:  remote,
	}
	return r
}

func (r *rig) engine(env sim.Env, depth, lanes int) *datapath.Engine {
	return datapath.New(datapath.Config{
		Depth:     depth,
		Lanes:     rdma.ConnectLanes(env, r.storage, lanes),
		IssueCost: perfmodel.RDMAReadIssueCost,
		Flush: func(off, n int64) error {
			r.flushCalls++
			r.flushedBytes += n
			return nil
		},
		FlushCost: func(n int64) time.Duration {
			return time.Duration(float64(n) / float64(perfmodel.MiB) * float64(perfmodel.FlushPerMiB))
		},
	})
}

// pullElapsed runs one Pull on a fresh rig and reports its virtual
// duration.
func pullElapsed(t *testing.T, depth, lanes int, chunk int64) time.Duration {
	t.Helper()
	var elapsed time.Duration
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		r := newRig(env, false, []int64{64 << 20})
		r.gpu.WriteStamp(0, 64<<20, 0xabc)
		e := r.engine(env, depth, lanes)
		p := datapath.NewPlan(r.tensors, chunk)
		t0 := env.Now()
		if _, err := e.Pull(env, r.cx, p, nil); err != nil {
			t.Error(err)
		}
		elapsed = env.Now() - t0
		if r.flushedBytes != 64<<20 {
			t.Errorf("flushed %d bytes, want %d", r.flushedBytes, 64<<20)
		}
	})
	eng.Run()
	return elapsed
}

// TestPipelineDepthOverlapsFlush is the headline behavior: with chunked
// transfers, depth >= 2 hides the PMem flush behind the next chunk's
// pull and must be strictly faster than the sequential depth-1
// schedule in virtual time.
func TestPipelineDepthOverlapsFlush(t *testing.T) {
	chunk := int64(4 << 20)
	d1 := pullElapsed(t, 1, 1, chunk)
	d2 := pullElapsed(t, 2, 1, chunk)
	d4 := pullElapsed(t, 4, 1, chunk)
	if d2 >= d1 {
		t.Fatalf("depth 2 (%v) not faster than depth 1 (%v)", d2, d1)
	}
	if d4 > d2 {
		t.Fatalf("depth 4 (%v) slower than depth 2 (%v)", d4, d2)
	}
}

// TestChunkedPullPreservesStamps: content fingerprints survive the
// chunked, pipelined, multi-lane virtual-buffer path — every tensor
// extent on PMem reads back the stamp written on the GPU.
func TestChunkedPullPreservesStamps(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		sizes := []int64{8 << 20, 1 << 20, 5<<20 + 12345}
		r := newRig(env, false, sizes)
		for i, tr := range r.tensors {
			r.gpu.WriteStamp(tr.PMemOff, tr.Size, uint64(1000+i))
		}
		e := r.engine(env, 4, 2)
		p := datapath.NewPlan(r.tensors, 1<<20)
		res, err := e.Pull(env, r.cx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Chunks != len(p.Chunks) || res.Bytes != p.Bytes {
			t.Fatalf("result = %+v, plan has %d chunks / %d bytes", res, len(p.Chunks), p.Bytes)
		}
		for i, tr := range r.tensors {
			if got := r.pm.StampOf(tr.PMemOff, tr.Size); got != uint64(1000+i) {
				t.Fatalf("tensor %d stamp = %d, want %d", i, got, 1000+i)
			}
		}
		if r.flushedBytes != p.Bytes || r.flushCalls != len(p.Chunks) {
			t.Fatalf("flush coverage: %d bytes in %d calls, want %d in %d",
				r.flushedBytes, r.flushCalls, p.Bytes, len(p.Chunks))
		}
	})
	eng.Run()
}

// TestChunkedRoundTripMaterialized: real bytes survive the chunked path
// in both directions — pull into PMem, wipe the GPU, push back.
func TestChunkedRoundTripMaterialized(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		sizes := []int64{1 << 20, 300<<10 + 7}
		r := newRig(env, true, sizes)
		var want []byte
		var total int64
		for _, s := range sizes {
			total += s
		}
		for i := int64(0); i < total; i++ {
			want = append(want, byte(i*31+7))
		}
		r.gpu.Write(0, want)

		e := r.engine(env, 2, 2)
		p := datapath.NewPlan(r.tensors, perfmodel.MinChunk)
		if _, err := e.Pull(env, r.cx, p, nil); err != nil {
			t.Fatal(err)
		}
		if got := r.pm.Bytes(0, total); !bytes.Equal(got, want) {
			t.Fatal("PMem content differs from GPU content after chunked pull")
		}
		r.gpu.Write(0, make([]byte, total)) // wipe
		if _, err := e.Push(env, r.cx, p, nil); err != nil {
			t.Fatal(err)
		}
		if got := r.gpu.Bytes(0, total); !bytes.Equal(got, want) {
			t.Fatal("GPU content differs after chunked push restore")
		}
	})
	eng.Run()
}

// TestEngineSpanStagesContiguous: in every mode the engine's pull and
// flush spans tile the engine's occupancy — pull start to flush end
// with no gap — so the daemon's span-sum invariant holds for pipelined
// configurations too.
func TestEngineSpanStagesContiguous(t *testing.T) {
	for _, cfg := range []struct{ depth, lanes int }{{1, 1}, {4, 1}, {2, 2}} {
		eng := sim.NewEngine()
		eng.Go("test", func(env sim.Env) {
			r := newRig(env, false, []int64{16 << 20, 16 << 20})
			r.gpu.WriteStamp(0, 16<<20, 1)
			r.gpu.WriteStamp(16<<20, 16<<20, 2)
			e := r.engine(env, cfg.depth, cfg.lanes)
			p := datapath.NewPlan(r.tensors, 4<<20)
			root := &telemetry.Span{Name: "op"}
			t0 := env.Now()
			res, err := e.Pull(env, r.cx, p, root)
			if err != nil {
				t.Fatal(err)
			}
			end := env.Now()
			pull := root.Find("pull")
			flush := root.Find("flush")
			if pull == nil || flush == nil {
				t.Fatalf("depth=%d lanes=%d: missing stage spans", cfg.depth, cfg.lanes)
			}
			if pull.Start != t0 || pull.End != flush.Start || flush.End != end {
				t.Fatalf("depth=%d lanes=%d: stages not contiguous: pull [%v,%v), flush [%v,%v), engine [%v,%v)",
					cfg.depth, cfg.lanes, pull.Start, pull.End, flush.Start, flush.End, t0, end)
			}
			if res.Transfer != pull.Dur() || res.Flush != flush.Dur() {
				t.Fatalf("result breakdown %v/%v != span durations %v/%v",
					res.Transfer, res.Flush, pull.Dur(), flush.Dur())
			}
			if len(pull.Children) != len(p.Chunks) {
				t.Fatalf("pull has %d chunk spans, want %d", len(pull.Children), len(p.Chunks))
			}
			for _, sp := range pull.Children {
				if !strings.HasPrefix(sp.Name, "pull:") || sp.Attrs["bytes"] == "" || sp.Attrs["lane"] == "" {
					t.Fatalf("chunk span malformed: %+v", sp)
				}
			}
		})
		eng.Run()
	}
}

// TestPullErrorNamesTensor: a failing chunk surfaces as a wrapped
// per-tensor error in both the sequential and pipelined paths, and the
// engine still terminates cleanly (no leaked lane deadlocks).
func TestPullErrorNamesTensor(t *testing.T) {
	for _, cfg := range []struct{ depth, lanes int }{{1, 1}, {4, 2}} {
		eng := sim.NewEngine()
		eng.Go("test", func(env sim.Env) {
			r := newRig(env, false, []int64{1 << 20, 1 << 20})
			r.gpu.WriteStamp(0, 2<<20, 3)
			r.cx.Remote[1].RKey = 9999 // unknown key: second tensor fails
			e := r.engine(env, cfg.depth, cfg.lanes)
			p := datapath.NewPlan(r.tensors, 0)
			_, err := e.Pull(env, r.cx, p, nil)
			if err == nil || !strings.Contains(err.Error(), "pulling t1:") {
				t.Fatalf("depth=%d lanes=%d: err = %v, want wrapped t1 error", cfg.depth, cfg.lanes, err)
			}
		})
		eng.Run()
	}
}
