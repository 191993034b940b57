package daemon

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"github.com/portus-sys/portus/internal/datapath"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/store"
)

// TestSlotFingerprintHashesInPlace: stamping a 32 MiB slot allocates
// nothing proportional to it — the bytes are hashed where they lie.
func TestSlotFingerprintHashesInPlace(t *testing.T) {
	env := sim.NewRealEnv()
	pm := pmem.New(pmem.Config{Name: "pm", DataSize: 80 << 20, Materialized: true})
	d, err := New(env, Config{PMem: pm, RNode: rdma.NewNode(env, "storage"), Fabric: rdma.NewSimFabric()})
	if err != nil {
		t.Fatal(err)
	}
	tensors := make([]index.TensorMeta, 4)
	for i := range tensors {
		tensors[i] = index.TensorMeta{Name: string(rune('a' + i)), DType: index.F32, Dims: []int64{2 << 20}, Size: 8 << 20}
	}
	m, err := d.eng.Index().CreateModel("m", tensors)
	if err != nil {
		t.Fatal(err)
	}
	clean := store.ContentCRC(pm, m, 0)
	if clean>>32 != 1 {
		t.Fatalf("stamp %016x is not 1<<32 | crc32c", clean)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if got := store.ContentCRC(pm, m, 0); got != clean {
			t.Fatalf("stamp of unchanged content moved: %016x then %016x", clean, got)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<10 {
		t.Fatalf("stamping a 32 MiB slot allocates %d B, want < 1 KiB", per)
	}
	last := m.TensorData(3, 0)
	pm.Data().Write(last.Off+last.Size-1, []byte{1})
	if store.ContentCRC(pm, m, 0) == clean {
		t.Fatal("stamp blind to the slot's last byte")
	}
}

var errTorn = errors.New("torn flush")

// TestStamperFollowsSlotOrder: flushes that cover the slot's extents,
// split into chunks, stamp what store.ContentCRC hashes, front to back or out
// of order alike, and a failed flush retried counts once; flushes that
// leave a gap or overlap stamp nothing, leaving commit to hash the
// slot.
func TestStamperFollowsSlotOrder(t *testing.T) {
	env := sim.NewRealEnv()
	pm := pmem.New(pmem.Config{Name: "pm", DataSize: 4 << 20, Materialized: true})
	d, err := New(env, Config{PMem: pm, RNode: rdma.NewNode(env, "storage"), Fabric: rdma.NewSimFabric()})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{640 << 10, 96 << 10, 300 << 10}
	tensors := make([]index.TensorMeta, len(sizes))
	for i, n := range sizes {
		tensors[i] = index.TensorMeta{Name: string(rune('a' + i)), DType: index.U8, Dims: []int64{n}, Size: n}
	}
	m, err := d.eng.Index().CreateModel("m", tensors)
	if err != nil {
		t.Fatal(err)
	}
	ranges := make([]datapath.TensorRange, len(sizes))
	for i := range sizes {
		ext := m.TensorData(i, 0)
		pm.Data().Write(ext.Off, bytes.Repeat([]byte{byte(i + 1)}, int(ext.Size)))
		ranges[i] = datapath.TensorRange{Name: tensors[i].Name, PMemOff: ext.Off, Size: ext.Size}
	}
	chunks := datapath.NewPlan(ranges, 256<<10).Chunks
	rc := &reqCtx{model: m}
	in := d.newStamper(rc, 0, nil)
	for _, c := range chunks {
		if err := in.flush(c.PMemOff, c.Len); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := in.stamp(), store.ContentCRC(pm, m, 0); got != want {
		t.Fatalf("in-order flushes stamp %016x, contentCRC %016x", got, want)
	}
	if len(chunks) < 2 || chunks[0].Tensor != chunks[1].Tensor {
		t.Fatalf("plan does not split the first tensor: %+v", chunks)
	}
	chunks[0], chunks[1] = chunks[1], chunks[0]
	out := d.newStamper(rc, 0, nil)
	for _, c := range chunks {
		if err := out.flush(c.PMemOff, c.Len); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := out.stamp(), store.ContentCRC(pm, m, 0); got != want {
		t.Fatalf("out-of-order flushes stamp %016x, contentCRC %016x", got, want)
	}
	// A flush that fails is retried by the engine; only the attempt that
	// succeeds adds its piece.
	torn := d.newStamper(rc, 0, nil)
	persist := torn.persist
	torn.persist = func(off, n int64, crc *uint32) error {
		if off == chunks[0].PMemOff {
			torn.persist = persist
			return errTorn
		}
		return persist(off, n, crc)
	}
	if err := torn.flush(chunks[0].PMemOff, chunks[0].Len); err != errTorn {
		t.Fatalf("torn flush = %v", err)
	}
	for _, c := range chunks {
		if err := torn.flush(c.PMemOff, c.Len); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := torn.stamp(), store.ContentCRC(pm, m, 0); got != want {
		t.Fatalf("flushes with a retried one stamp %016x, contentCRC %016x", got, want)
	}
	for _, tc := range []struct {
		name  string
		flush []datapath.Chunk
	}{
		{"gap", chunks[1:]},
		{"overlap", append([]datapath.Chunk{{PMemOff: chunks[0].PMemOff, Len: 1}}, chunks...)},
		{"range past the slot", append(chunks, datapath.Chunk{PMemOff: m.TensorData(2, 1).Off, Len: 1})},
	} {
		s := d.newStamper(rc, 0, nil)
		for _, c := range tc.flush {
			if err := s.flush(c.PMemOff, c.Len); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.stamp(); got != 0 {
			t.Fatalf("%s: flushes stamp %016x, want 0", tc.name, got)
		}
	}
}
