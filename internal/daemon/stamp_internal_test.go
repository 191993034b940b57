package daemon

import (
	"runtime"
	"testing"

	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
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
	clean := d.contentCRC(m, 0)
	if clean>>32 != 1 {
		t.Fatalf("stamp %016x is not 1<<32 | crc32c", clean)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if got := d.contentCRC(m, 0); got != clean {
			t.Fatalf("stamp of unchanged content moved: %016x then %016x", clean, got)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<10 {
		t.Fatalf("stamping a 32 MiB slot allocates %d B, want < 1 KiB", per)
	}
	last := m.TensorData(3, 0)
	pm.Data().Write(last.Off+last.Size-1, []byte{1})
	if d.contentCRC(m, 0) == clean {
		t.Fatal("stamp blind to the slot's last byte")
	}
}
