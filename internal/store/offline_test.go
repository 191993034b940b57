package store_test

import (
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/store"
)

// fixture builds a store with three models:
//   - "finished": two done versions (10 and 20) — repack keeps v20 only;
//   - "crashed-mid": one done (5) + one active (6, collapsed) — keeps 5;
//   - "never-done": registration only — removed entirely.
func fixture(t *testing.T) (*pmem.Device, *index.Store, map[string]uint64) {
	t.Helper()
	pm := pmem.New(pmem.Config{Name: "pm", DataSize: 16 << 20, MetaSize: 8 << 20, Materialized: true})
	s, err := index.Format(pm, 16)
	if err != nil {
		t.Fatal(err)
	}
	tensors := func(n string) []index.TensorMeta {
		return []index.TensorMeta{
			{Name: n + ".w0", DType: index.F32, Dims: []int64{256}, Size: 1024},
			{Name: n + ".w1", DType: index.F32, Dims: []int64{512}, Size: 2048},
		}
	}
	stamps := map[string]uint64{}
	write := func(m *index.Model, slot int, iter uint64, done bool) {
		m.SetActive(slot, iter)
		for i := range m.Tensors {
			ext := m.TensorData(i, slot)
			gpu.FillRegion(pm.Data(), ext.Off, ext.Size, iter*100+uint64(i))
			pm.FlushData(ext.Off, ext.Size)
			if done {
				stamps[keyOf(m.Name, i, iter)] = pm.Data().StampOf(ext.Off, ext.Size)
			}
		}
		if done {
			m.SetDone(slot, iter, time.Unix(0, int64(iter)))
		}
	}
	fin, err := s.CreateModel("finished", tensors("fin"))
	if err != nil {
		t.Fatal(err)
	}
	write(fin, 0, 10, true)
	write(fin, 1, 20, true)

	cm, err := s.CreateModel("crashed-mid", tensors("cm"))
	if err != nil {
		t.Fatal(err)
	}
	write(cm, 0, 5, true)
	write(cm, 1, 6, false) // collapsed: still active

	if _, err := s.CreateModel("never-done", tensors("nd")); err != nil {
		t.Fatal(err)
	}
	return pm, s, stamps
}

func keyOf(model string, tensor int, iter uint64) string {
	return model + string(rune('0'+tensor)) + string(rune('0'+iter%10))
}

func TestRepackKeepsNewestVersions(t *testing.T) {
	pm, s, stamps := fixture(t)
	rep, err := store.Offline(pm, s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModelsKept != 2 || rep.ModelsRemoved != 1 || rep.SlotsReclaimed != 2 {
		t.Fatalf("report = %+v", rep)
	}

	fin, err := s.Lookup("finished")
	if err != nil {
		t.Fatal(err)
	}
	slot, v, ok := fin.LatestDone()
	if !ok || v.Iteration != 20 {
		t.Fatalf("finished model latest = %+v ok=%v", v, ok)
	}
	for i := range fin.Tensors {
		ext := fin.TensorData(i, slot)
		if got := pm.Data().StampOf(ext.Off, ext.Size); got != stamps[keyOf("finished", i, 20)] {
			t.Fatalf("finished tensor %d content changed by repack", i)
		}
	}
	if fin.HasSlot(1 - slot) {
		t.Fatal("outdated slot still allocated after repack")
	}

	cm, err := s.Lookup("crashed-mid")
	if err != nil {
		t.Fatal(err)
	}
	slot, v, ok = cm.LatestDone()
	if !ok || v.Iteration != 5 {
		t.Fatalf("crashed-mid latest = %+v ok=%v", v, ok)
	}
	for i := range cm.Tensors {
		ext := cm.TensorData(i, slot)
		if got := pm.Data().StampOf(ext.Off, ext.Size); got != stamps[keyOf("crashed-mid", i, 5)] {
			t.Fatalf("crashed-mid tensor %d content changed by repack", i)
		}
	}

	if _, err := s.Lookup("never-done"); err == nil {
		t.Fatal("never-done model survived repack")
	}
}

func TestRepackCompactsSpace(t *testing.T) {
	pm, s, _ := fixture(t)
	before := s.Allocator().InUse()
	rep, err := store.Offline(pm, s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesReclaimed <= 0 {
		t.Fatalf("no space reclaimed: %+v", rep)
	}
	if rep.BytesInUse >= before {
		t.Fatalf("in-use did not shrink: %d -> %d", before, rep.BytesInUse)
	}
	// Extents must be contiguous from the start of the zone.
	live := s.Allocator().Live()
	cursor := int64(64) // alloc.Align
	for _, e := range live {
		if e.Off != cursor {
			t.Fatalf("extent at %d, expected %d (not compact)", e.Off, cursor)
		}
		cursor += e.Size
	}
}

func TestRepackedStateSurvivesCrashAndReopen(t *testing.T) {
	pm, s, stamps := fixture(t)
	if _, err := store.Offline(pm, s); err != nil {
		t.Fatal(err)
	}
	pm.Crash()
	s2, err := index.Open(pm)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := s2.Lookup("finished")
	if err != nil {
		t.Fatal(err)
	}
	slot, v, ok := fin.LatestDone()
	if !ok || v.Iteration != 20 {
		t.Fatalf("after crash: %+v ok=%v", v, ok)
	}
	ext := fin.TensorData(0, slot)
	if got := pm.Data().StampOf(ext.Off, ext.Size); got != stamps[keyOf("finished", 0, 20)] {
		t.Fatal("repacked content not durable")
	}
}

func TestRepackIdempotent(t *testing.T) {
	pm, s, _ := fixture(t)
	if _, err := store.Offline(pm, s); err != nil {
		t.Fatal(err)
	}
	rep2, err := store.Offline(pm, s)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.BytesMoved != 0 || rep2.BytesReclaimed != 0 || rep2.SlotsReclaimed != 0 {
		t.Fatalf("second repack did work: %+v", rep2)
	}
}

func TestRepackEmptyStore(t *testing.T) {
	pm := pmem.New(pmem.Config{Name: "pm", DataSize: 1 << 20, MetaSize: 8 << 20})
	s, err := index.Format(pm, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := store.Offline(pm, s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModelsKept != 0 || rep.ModelsRemoved != 0 {
		t.Fatalf("report on empty store = %+v", rep)
	}
}
