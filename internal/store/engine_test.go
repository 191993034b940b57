package store

import (
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/telemetry"
)

func newTestEngine(t *testing.T, dataSize int64) *Engine {
	t.Helper()
	pm := pmem.New(pmem.Config{Name: "pm", DataSize: dataSize, MetaSize: 8 << 20, Materialized: true})
	e, err := Open(Config{PMem: pm, TableCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func metas(prefix string, sizes ...int64) []index.TensorMeta {
	tms := make([]index.TensorMeta, len(sizes))
	for i, sz := range sizes {
		tms[i] = index.TensorMeta{Name: prefix, DType: index.F32, Dims: []int64{sz / 4}, Size: sz}
	}
	return tms
}

// commit writes a deterministic pattern into slot and marks it DONE,
// returning the per-tensor content stamps.
func commit(pm *pmem.Device, m *index.Model, slot int, iter uint64) []uint64 {
	m.SetActive(slot, iter)
	stamps := make([]uint64, len(m.Tensors))
	for i := range m.Tensors {
		ext := m.TensorData(i, slot)
		gpu.FillRegion(pm.Data(), ext.Off, ext.Size, iter*100+uint64(i))
		pm.FlushData(ext.Off, ext.Size)
		stamps[i] = pm.Data().StampOf(ext.Off, ext.Size)
	}
	m.SetDone(slot, iter, time.Unix(0, int64(iter)))
	return stamps
}

// TestAdmissionRollbackOnSecondSlot is the regression test for the
// registration leak: a model whose first version slot fits but whose
// second does not must leave the allocator exactly as it found it.
func TestAdmissionRollbackOnSecondSlot(t *testing.T) {
	e := newTestEngine(t, 1<<20)
	before := e.Allocator().InUse()

	// One 600 KiB tensor: slot 0 fits (600 KiB of ~1 MiB), slot 1 does
	// not — the failure lands mid-way through the two-slot allocation.
	_, err := e.CreateModel("leaky", metas("w", 600<<10))
	if err == nil {
		t.Fatal("CreateModel succeeded with room for only one slot")
	}
	if !IsSpaceError(err) {
		t.Fatalf("want space error, got %v", err)
	}
	if got := e.Allocator().InUse(); got != before {
		t.Fatalf("first slot's extent leaked: InUse = %d, want %d", got, before)
	}
	if got := len(e.Allocator().Live()); got != 0 {
		t.Fatalf("%d live extents after failed admission, want 0", got)
	}
	if _, err := e.Index().Lookup("leaky"); err == nil {
		t.Fatal("failed registration left a visible model")
	}

	// The reclaimed space must be immediately admissible.
	if _, err := e.CreateModel("fits", metas("w", 200<<10)); err != nil {
		t.Fatalf("admission after rollback: %v", err)
	}
}

// TestAdmissionRollbackMidSlot fails inside the second slot's tensor
// loop (first tensor of slot 1 fits, second does not) and checks every
// extent from both slots is rolled back.
func TestAdmissionRollbackMidSlot(t *testing.T) {
	e := newTestEngine(t, 1<<20)
	before := e.Allocator().InUse()
	// Slot 0: 400 + 200 = 600 KiB. Slot 1: 400 KiB fits (1000 KiB
	// total), 200 KiB does not (1 MiB zone, offset 0 reserved).
	_, err := e.CreateModel("leaky", metas("w", 400<<10, 200<<10))
	if err == nil {
		t.Fatal("CreateModel succeeded without room for both slots")
	}
	if !IsSpaceError(err) {
		t.Fatalf("want space error, got %v", err)
	}
	if got := e.Allocator().InUse(); got != before {
		t.Fatalf("partial admission leaked extents: InUse = %d, want %d", got, before)
	}
}

// TestEnsureSlotsRollback exhausts the zone mid-way through slot
// re-allocation (the post-offline-repack path) and checks the extents
// already claimed are freed.
func TestEnsureSlotsRollback(t *testing.T) {
	e := newTestEngine(t, 768<<10)
	m, err := e.CreateModel("m", metas("w", 100<<10, 150<<10))
	if err != nil {
		t.Fatal(err)
	}
	// Mimic the offline repacker reclaiming slot 1: free its extents and
	// invalidate its pointers. The two frees coalesce into one 250 KiB
	// gap.
	for i := range m.Tensors {
		if err := e.Allocator().Free(m.PAddr[i][1]); err != nil {
			t.Fatal(err)
		}
	}
	m.ClearVersion(1)
	// The filler's first slot takes 150 KiB out of the gap (leaving
	// 100 KiB) and its second slot bumps, leaving too little tail for
	// the 150 KiB tensor below.
	if _, err := e.CreateModel("filler", metas("f", 150<<10)); err != nil {
		t.Fatal(err)
	}
	before := e.Allocator().InUse()
	if err := e.EnsureSlots(m); err == nil {
		t.Fatal("EnsureSlots succeeded in an exhausted zone")
	}
	if got := e.Allocator().InUse(); got != before {
		t.Fatalf("EnsureSlots leaked on failure: InUse = %d, want %d", got, before)
	}
	if m.HasSlot(1) {
		t.Fatal("EnsureSlots repointed a slot despite failing")
	}
}

// TestStatsAccounting checks live/frag/garbage track admissions,
// deletes, and reclamation as first-class state.
func TestStatsAccounting(t *testing.T) {
	e := newTestEngine(t, 16<<20)
	pm := e.PMem()
	a, err := e.CreateModel("a", metas("a", 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.CreateModel("b", metas("b", 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	commit(pm, a, 0, 1)
	commit(pm, b, 0, 1)

	st := e.Stats()
	if st.Live != 4*(64<<10) {
		t.Fatalf("Live = %d, want %d", st.Live, 4*(64<<10))
	}
	if st.Frag != 0 || st.Garbage != 0 {
		t.Fatalf("fresh engine Frag=%d Garbage=%d, want 0/0", st.Frag, st.Garbage)
	}

	if err := e.DeleteModel(a); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Live != 2*(64<<10) {
		t.Fatalf("Live after delete = %d, want %d", st.Live, 2*(64<<10))
	}
	if st.Frag != 2*(64<<10) {
		t.Fatalf("Frag after delete = %d, want %d (a's extents sit below b's)", st.Frag, 2*(64<<10))
	}
	if st.Garbage <= 0 {
		t.Fatalf("Garbage after delete = %d, want > 0 (dead MIndex record)", st.Garbage)
	}

	// A new model must reuse both the dead record bytes and the gaps.
	if _, err := e.CreateModel("c", metas("c", 64<<10)); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Garbage != 0 {
		t.Fatalf("Garbage after record reuse = %d, want 0", st.Garbage)
	}
	if st.Frag != 0 {
		t.Fatalf("Frag after gap reuse = %d, want 0", st.Frag)
	}
}

// TestOnlinePassReclaims runs a full online pass (CompactModel per
// model + FinishPass) over a fragmented zone and checks the bump
// pointer drops, committed bytes survive, and the run is counted.
func TestOnlinePassReclaims(t *testing.T) {
	e := newTestEngine(t, 16<<20)
	pm := e.PMem()
	names := []string{"a", "b", "c"}
	models := map[string]*index.Model{}
	stamps := map[string][]uint64{}
	for _, n := range names {
		m, err := e.CreateModel(n, metas(n, 128<<10, 64<<10))
		if err != nil {
			t.Fatal(err)
		}
		models[n] = m
		stamps[n] = commit(pm, m, 0, 7)
	}
	if err := e.DeleteModel(models["a"]); err != nil {
		t.Fatal(err)
	}
	highBefore := e.Allocator().HighWater()
	if !e.NeedsRepack() {
		// a's 384 KiB of gaps vs 16 MiB is below the default watermark;
		// explicit passes must still work.
		t.Log("below watermark (expected); running explicit pass")
	}

	var movedTotal int64
	for _, n := range []string{"b", "c"} {
		moved, err := e.CompactModel(models[n])
		if err != nil {
			t.Fatalf("CompactModel(%s): %v", n, err)
		}
		movedTotal += moved
	}
	if movedTotal == 0 {
		t.Fatal("pass moved nothing despite gaps below live extents")
	}
	rep, err := e.FinishPass(2, movedTotal, time.Millisecond, telemetry.NewTraceID())
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesReclaimed <= 0 {
		t.Fatalf("BytesReclaimed = %d, want > 0", rep.BytesReclaimed)
	}
	if got := e.Allocator().HighWater(); got >= highBefore {
		t.Fatalf("bump pointer did not drop: %d -> %d", highBefore, got)
	}
	if e.RepackRuns() != 1 {
		t.Fatalf("RepackRuns = %d, want 1", e.RepackRuns())
	}
	for _, n := range []string{"b", "c"} {
		m, err := e.Index().Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		slot, v, ok := m.LatestDone()
		if !ok || v.Iteration != 7 {
			t.Fatalf("%s latest = %+v ok=%v", n, v, ok)
		}
		for i := range m.Tensors {
			ext := m.TensorData(i, slot)
			if got := pm.Data().StampOf(ext.Off, ext.Size); got != stamps[n][i] {
				t.Fatalf("%s tensor %d content changed by online pass", n, i)
			}
		}
	}
}

// TestCompactModelUpdatesCachedHandle is the regression test for the
// stale-session-handle corruption: the daemon's data plane reads
// extents through a long-lived *index.Model, so a compaction that
// repoints a fresh Lookup handle would leave that cache pointing at
// freed extents — the next checkpoint then writes into space the
// allocator may have re-issued to another tenant.
func TestCompactModelUpdatesCachedHandle(t *testing.T) {
	e := newTestEngine(t, 16<<20)
	pm := e.PMem()
	// b is created first so its extents sit below a's; deleting it opens
	// the gap the compaction moves a into.
	b, err := e.CreateModel("b", metas("b", 128<<10))
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.CreateModel("a", metas("a", 128<<10))
	if err != nil {
		t.Fatal(err)
	}
	commit(pm, m, 0, 1)
	if err := e.DeleteModel(b); err != nil {
		t.Fatal(err)
	}

	before := make([]int64, 2)
	for v := 0; v < 2; v++ {
		before[v] = m.PAddr[0][v]
	}
	moved, err := e.CompactModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("compaction moved nothing despite a gap below the extents")
	}
	// The cached handle and the media must agree on the new pointers.
	fresh, err := e.Index().Lookup("a")
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 2; v++ {
		if m.PAddr[0][v] != fresh.PAddr[0][v] {
			t.Fatalf("slot %d: cached handle points at %d, media at %d — the data plane would write through a freed pointer",
				v, m.PAddr[0][v], fresh.PAddr[0][v])
		}
	}
	if m.PAddr[0][0] == before[0] && m.PAddr[0][1] == before[1] {
		t.Fatal("no pointer changed despite bytes moved")
	}
}

// TestSweepLeaksOnOpen plants an allocated-but-unreferenced extent (the
// residue of a crash between allocation and repoint) and checks Open
// returns it to the free list.
func TestSweepLeaksOnOpen(t *testing.T) {
	pm := pmem.New(pmem.Config{Name: "pm", DataSize: 4 << 20, MetaSize: 8 << 20, Materialized: true})
	e, err := Open(Config{PMem: pm, TableCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateModel("m", metas("w", 64<<10)); err != nil {
		t.Fatal(err)
	}
	leak, err := e.Allocator().Allocate(96 << 10)
	if err != nil {
		t.Fatal(err)
	}
	inUse := e.Allocator().InUse()

	e2, err := Open(Config{PMem: pm, TableCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Allocator().InUse(); got != inUse-(96<<10) {
		t.Fatalf("leak sweep: InUse = %d, want %d", got, inUse-(96<<10))
	}
	for _, ext := range e2.Allocator().Live() {
		if ext.Off == leak {
			t.Fatal("leaked extent survived the open-time sweep")
		}
	}
}

// TestCompactAfterDeleteMovesNothing is the delete-vs-maintenance race
// the daemon relies on the engine to settle: a compaction step queued
// behind a delete runs on the deleted model's handle, and must neither
// move extents the allocator no longer owns nor free anything twice.
func TestCompactAfterDeleteMovesNothing(t *testing.T) {
	e := newTestEngine(t, 16<<20)
	pad, err := e.CreateModel("pad", metas("pad", 128<<10))
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.CreateModel("m", metas("m", 128<<10))
	if err != nil {
		t.Fatal(err)
	}
	// Deleting pad opens a gap below m, so a compaction of a live m
	// would move; deleting m first must turn the same call into a no-op.
	if err := e.DeleteModel(pad); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteModel(m); err != nil {
		t.Fatal(err)
	}
	moved, err := e.CompactModel(m)
	if err != nil || moved != 0 {
		t.Fatalf("CompactModel on a deleted handle = %d bytes, %v; want a no-op", moved, err)
	}
	if inUse := e.Allocator().InUse(); inUse != 0 {
		t.Fatalf("allocator holds %d bytes after every model was deleted", inUse)
	}
}
