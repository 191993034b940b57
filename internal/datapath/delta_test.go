package datapath_test

import (
	"bytes"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/datapath"
	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

// TestDeltaPlanCoversExtents: a delta plan's chunks tile exactly the
// dirty extents handed in — nothing more, nothing less — with tensor
// and PMem addressing consistent with the extent bases, and chunk
// lengths under the MinChunk-clamped bound.
func TestDeltaPlanCoversExtents(t *testing.T) {
	extents := []datapath.Extent{
		{Tensor: 0, Name: "t0", TensorOff: 0, PMemOff: 100 << 20, Size: 64 << 10},
		{Tensor: 0, Name: "t0", TensorOff: 5 << 20, PMemOff: 100<<20 + 5<<20, Size: 3<<20 + 777},
		{Tensor: 2, Name: "t2", TensorOff: 128 << 10, PMemOff: 200 << 20, Size: 64 << 10},
	}
	p := datapath.NewDeltaPlan(extents, 1<<20)
	var total int64
	for _, x := range extents {
		total += x.Size
	}
	if p.Bytes != total {
		t.Fatalf("plan bytes %d, want %d", p.Bytes, total)
	}
	// Walk chunks extent by extent: contiguous cover, consistent
	// addressing on both ends.
	ci := 0
	for _, x := range extents {
		var covered int64
		for covered < x.Size {
			c := p.Chunks[ci]
			ci++
			if c.Tensor != x.Tensor || c.Name != x.Name {
				t.Fatalf("chunk %d addresses tensor %d/%s, want %d/%s", ci-1, c.Tensor, c.Name, x.Tensor, x.Name)
			}
			if c.TensorOff != x.TensorOff+covered || c.PMemOff != x.PMemOff+covered {
				t.Fatalf("chunk %d offsets (%d,%d), want (%d,%d)",
					ci-1, c.TensorOff, c.PMemOff, x.TensorOff+covered, x.PMemOff+covered)
			}
			if c.Len <= 0 || c.Len > 1<<20 {
				t.Fatalf("chunk %d len %d out of bounds", ci-1, c.Len)
			}
			covered += c.Len
		}
		if covered != x.Size {
			t.Fatalf("extent covered %d, want %d", covered, x.Size)
		}
	}
	if ci != len(p.Chunks) {
		t.Fatalf("plan has %d chunks beyond the extents", len(p.Chunks)-ci)
	}
	// Sub-MinChunk chunk sizes clamp up, as in NewPlan.
	clamped := datapath.NewDeltaPlan(extents, 1)
	for _, c := range clamped.Chunks {
		if c.Len > perfmodel.MinChunk {
			t.Fatalf("clamped plan emitted %d-byte chunk", c.Len)
		}
	}
}

// TestDeltaPullPlusCopyForward is the incremental checkpoint datapath
// end to end at the engine level: slot 0 holds the previous version,
// the dirty extent is pulled over the fabric into slot 1, the clean
// ranges copy forward slot0→slot1 locally, and slot 1 ends up
// byte-identical to the GPU — with every slot-1 byte flushed before
// the engine returns.
func TestDeltaPullPlusCopyForward(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		const size = int64(2 << 20)
		r := newDeltaRig(env, size)

		// Full pull of version 1 into slot 0.
		full := datapath.NewPlan(r.tensors, 0)
		e := r.engine(env, 1, 1)
		if _, err := e.Pull(env, r.cx, full, nil); err != nil {
			t.Fatal(err)
		}

		// Version 2 dirties one interior 256 KiB block.
		const dOff, dLen = int64(512 << 10), int64(256 << 10)
		dirty := make([]byte, dLen)
		for i := range dirty {
			dirty[i] = byte(i*7 + 3)
		}
		r.gpu.Write(dOff, dirty)

		root := &telemetry.Span{Name: "ckpt"}
		r.flushedBytes, r.flushCalls = 0, 0
		plan := datapath.NewDeltaPlan([]datapath.Extent{
			{Tensor: 0, Name: "t0", TensorOff: dOff, PMemOff: size + dOff, Size: dLen},
		}, 0)
		pres, err := e.Pull(env, r.cx, plan, root)
		if err != nil {
			t.Fatal(err)
		}
		if pres.Bytes != dLen {
			t.Fatalf("delta pull moved %d bytes, want %d", pres.Bytes, dLen)
		}
		spans := []datapath.CopySpan{
			{Name: "t0", DstOff: size, SrcOff: 0, Size: dOff},
			{Name: "t0", DstOff: size + dOff + dLen, SrcOff: dOff + dLen, Size: size - dOff - dLen},
		}
		cres, err := e.CopyForward(env, r.cx, spans, func(dst, src, n int64) error {
			memdev.Copy(r.pm, dst, r.pm, src, n)
			return nil
		}, root)
		if err != nil {
			t.Fatal(err)
		}
		if cres.Bytes != size-dLen {
			t.Fatalf("copy-forward moved %d bytes, want %d", cres.Bytes, size-dLen)
		}
		// Slot 1 matches the GPU byte for byte.
		if !bytes.Equal(r.pm.Bytes(size, size), r.gpu.Bytes(0, size)) {
			t.Fatal("slot 1 differs from GPU after delta pull + copy-forward")
		}
		// Every slot-1 byte was flushed exactly once (pull chunk + two
		// copy spans), preserving the flush-before-DONE discipline.
		if r.flushedBytes != size {
			t.Fatalf("flushed %d bytes of slot 1, want %d", r.flushedBytes, size)
		}
		if sp := root.Find("copy-forward"); sp == nil || len(sp.Children) != len(spans) {
			t.Fatalf("copy-forward span missing or wrong arity: %+v", sp)
		}
		if cres.Transfer <= 0 {
			t.Fatal("copy-forward charged no virtual time")
		}
	})
	eng.Run()
}

// newDeltaRig is newRig with a two-slot PMem device: one tensor of the
// given size on the GPU, a data zone of 2*size, and remote/local MRs
// spanning everything so plans can address either slot.
func newDeltaRig(env sim.Env, size int64) *rig {
	r := newRig(env, true, []int64{size})
	pm2 := memdev.New("pmem2", memdev.PMEM, 2*size, true)
	r.pm = pm2
	r.cx.LocalMR = r.cx.Local.RegisterMR(env, pm2, 0, 2*size)
	return r
}

// TestCopyForwardVirtualCost: on the virtual clock each copy-forward
// span costs its modeled PMem read+write time plus its flush cost, in
// series, and the Result reports exactly that sum.
func TestCopyForwardVirtualCost(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		const size = int64(2 << 20)
		r := newDeltaRig(env, size)
		e := r.engine(env, 1, 1)
		spans := []datapath.CopySpan{
			{Name: "t0", DstOff: size, SrcOff: 0, Size: 64 << 10},
			{Name: "t0", DstOff: size + 1<<20, SrcOff: 1 << 20, Size: 1<<20 - 4096},
		}
		var want time.Duration
		for _, s := range spans {
			flush := time.Duration(float64(s.Size) / float64(perfmodel.MiB) * float64(perfmodel.FlushPerMiB))
			want += perfmodel.PMemCopyTime(s.Size) + flush
		}
		t0 := env.Now()
		res, err := e.CopyForward(env, r.cx, spans, func(dst, src, n int64) error {
			memdev.Copy(r.pm, dst, r.pm, src, n)
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Transfer != want || env.Now()-t0 != want {
			t.Fatalf("copy-forward charged %v (clock %v), want %v", res.Transfer, env.Now()-t0, want)
		}
	})
	eng.Run()
}

// TestDeltaPullChargesVirtualClockOnly: a delta plan's per-verb issue
// and flush costs land on the virtual clock exactly as a full plan's
// with the same chunks would, striped or not — and on a real
// environment they cost no wall time.
func TestDeltaPullChargesVirtualClockOnly(t *testing.T) {
	const size = int64(2 << 20)
	delta := datapath.NewDeltaPlan([]datapath.Extent{
		{Tensor: 0, Name: "t0", TensorOff: 0, PMemOff: size, Size: 64 << 10},
		{Tensor: 0, Name: "t0", TensorOff: 512 << 10, PMemOff: size + 512<<10, Size: 192 << 10},
		{Tensor: 0, Name: "t0", TensorOff: 1 << 20, PMemOff: size + 1<<20, Size: 64 << 10},
	}, 0)
	plain := datapath.Plan{Chunks: delta.Chunks, Bytes: delta.Bytes}
	for _, shape := range []struct{ depth, lanes int }{{1, 1}, {2, 2}} {
		var got [2]datapath.Result
		for i, p := range []datapath.Plan{plain, delta} {
			eng := sim.NewEngine()
			eng.Go("test", func(env sim.Env) {
				r := newDeltaRig(env, size)
				res, err := r.engine(env, shape.depth, shape.lanes).Pull(env, r.cx, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = res
			})
			eng.Run()
		}
		if got[0] != got[1] {
			t.Fatalf("depth %d lanes %d: delta pull %+v, same chunks as a full plan %+v",
				shape.depth, shape.lanes, got[1], got[0])
		}
	}

	env := sim.NewRealEnv()
	r := newDeltaRig(env, size)
	e := datapath.New(datapath.Config{
		Lanes:     rdma.ConnectLanes(env, r.storage, 1),
		IssueCost: time.Second,
		Flush:     func(off, n int64) error { return nil },
		FlushCost: func(int64) time.Duration { return time.Second },
	})
	t0 := time.Now()
	if _, err := e.Pull(env, r.cx, delta, nil); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > 500*time.Millisecond {
		t.Fatalf("delta pull on a real environment took %v: modeled costs slept", took)
	}
}
