package index

import (
	"errors"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/alloc"
	"github.com/portus-sys/portus/internal/delta"
	"github.com/portus-sys/portus/internal/pmem"
)

func testTable(count int, iter uint64) *delta.Table {
	t := &delta.Table{BlockBytes: 64 << 10, Iteration: iter, Layout: 0xfeedface}
	for i := 0; i < count; i++ {
		t.Digests = append(t.Digests, uint64(i)*31+iter)
	}
	return t
}

func sameTable(a, b *delta.Table) bool {
	if a.BlockBytes != b.BlockBytes || a.Iteration != b.Iteration ||
		a.Layout != b.Layout || len(a.Digests) != len(b.Digests) {
		return false
	}
	for i := range a.Digests {
		if a.Digests[i] != b.Digests[i] {
			return false
		}
	}
	return true
}

func TestDeltaPutGetRoundTrip(t *testing.T) {
	pm, s := newStore(t)
	m, err := s.CreateModel("bert", bertTensors())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.DeltaGet(m, 0); ok {
		t.Fatal("DeltaGet hit before any put")
	}
	want0, want1 := testTable(40, 7), testTable(40, 8)
	if err := s.DeltaPut(m, 0, want0); err != nil {
		t.Fatal(err)
	}
	if err := s.DeltaPut(m, 1, want1); err != nil {
		t.Fatal(err)
	}
	for slot, want := range map[int]*delta.Table{0: want0, 1: want1} {
		got, ok := s.DeltaGet(m, slot)
		if !ok || !sameTable(got, want) {
			t.Fatalf("slot %d round trip: ok=%v got=%+v", slot, ok, got)
		}
	}

	// In-place rewrite with the same digest count.
	want0b := testTable(40, 9)
	if err := s.DeltaPut(m, 0, want0b); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.DeltaGet(m, 0); !ok || !sameTable(got, want0b) {
		t.Fatal("in-place rewrite lost")
	}

	// Tables survive a flush + reopen.
	pm.FlushMeta(0, pm.MetaSize())
	s2, err := Open(pm)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s2.Lookup("bert")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.DeltaGet(m2, 0); !ok || !sameTable(got, want0b) {
		t.Fatal("slot-0 table lost across reopen")
	}
	if got, ok := s2.DeltaGet(m2, 1); !ok || !sameTable(got, want1) {
		t.Fatal("slot-1 table lost across reopen")
	}
}

func TestDeltaDropOnDeleteAndClear(t *testing.T) {
	_, s := newStore(t)
	m, err := s.CreateModel("bert", bertTensors())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeltaPut(m, 0, testTable(8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.DeltaPut(m, 1, testTable(8, 2)); err != nil {
		t.Fatal(err)
	}
	m.ClearVersion(1)
	if _, ok := s.DeltaGet(m, 1); ok {
		t.Fatal("cleared slot kept its digest table")
	}
	if _, ok := s.DeltaGet(m, 0); !ok {
		t.Fatal("ClearVersion(1) dropped slot 0's table")
	}
	if err := s.DeleteModel("bert"); err != nil {
		t.Fatal(err)
	}
	// A new model reusing the MIndex offset must not inherit the table.
	m2, err := s.CreateModel("bert2", bertTensors())
	if err != nil {
		t.Fatal(err)
	}
	if m2.InfoOff() != m.InfoOff() {
		t.Fatalf("expected MIndex reuse (%d vs %d)", m2.InfoOff(), m.InfoOff())
	}
	if _, ok := s.DeltaGet(m2, 0); ok {
		t.Fatal("new model inherited the deleted model's digest table")
	}
	// The dead records' space is reused, not leaked.
	before := s.DeltaBytes()
	if err := s.DeltaPut(m2, 0, testTable(8, 3)); err != nil {
		t.Fatal(err)
	}
	if s.DeltaBytes() != before {
		t.Fatalf("dead record not reused: region grew %d -> %d", before, s.DeltaBytes())
	}
	if got, ok := s.DeltaGet(m2, 0); !ok || got.Iteration != 3 {
		t.Fatalf("reused record unreadable: ok=%v got=%+v", ok, got)
	}
}

func TestDeltaSizeChangeReallocates(t *testing.T) {
	_, s := newStore(t)
	m, err := s.CreateModel("bert", bertTensors())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeltaPut(m, 0, testTable(8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.DeltaPut(m, 0, testTable(16, 2)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.DeltaGet(m, 0); !ok || len(got.Digests) != 16 || got.Iteration != 2 {
		t.Fatalf("resized table wrong: ok=%v got=%+v", ok, got)
	}
}

func TestDeltaRegionExhaustionReportsNoSpace(t *testing.T) {
	pm := pmem.New(pmem.Config{Name: "pm0", DataSize: 1 << 30, MetaSize: AllocTableLen + 1<<20, Materialized: false})
	s, err := Format(pm, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.CreateModel("m", []TensorMeta{{Name: "t", DType: F32, Size: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	// Grow the vector so every put needs a fresh allocation until the
	// region hits the MIndex break.
	var sawNoSpace bool
	for count := 1 << 10; count < 1<<22; count *= 2 {
		if err := s.DeltaPut(m, 0, testTable(count, 1)); err != nil {
			if !errors.Is(err, alloc.ErrNoSpace) {
				t.Fatalf("exhaustion error is not ErrNoSpace: %v", err)
			}
			sawNoSpace = true
			break
		}
	}
	if !sawNoSpace {
		t.Fatal("delta region never reported exhaustion")
	}
	// The store must remain usable: smaller tables still persist.
	if err := s.DeltaPut(m, 1, testTable(4, 2)); err != nil {
		t.Fatalf("store unusable after delta exhaustion: %v", err)
	}
}

// TestDigestsTrustOnlyTheDoneVersion: Model.Digests hands out a slot's
// table only while it describes the DONE version there, at the layout
// asked for (or its own block size, asked with 0).
func TestDigestsTrustOnlyTheDoneVersion(t *testing.T) {
	_, s := newStore(t)
	m, err := s.CreateModel("bert", bertTensors())
	if err != nil {
		t.Fatal(err)
	}
	const block = 64 << 10
	sizes := m.Sizes()
	table := &delta.Table{BlockBytes: block, Iteration: 5, Layout: delta.LayoutHash(sizes, block),
		Digests: make([]uint64, delta.BlockCount(sizes, block))}
	if err := s.DeltaPut(m, 0, table); err != nil {
		t.Fatal(err)
	}
	m.SetActive(0, 5)
	if m.Digests(0, block) != nil {
		t.Fatal("an ACTIVE slot's table was trusted")
	}
	m.SetDoneCRC(0, 5, time.Unix(0, 1), 1<<32)
	for _, b := range []int64{block, 0} {
		if got := m.Digests(0, b); got == nil || !sameTable(got, table) {
			t.Fatalf("block %d: the DONE slot's table = %+v", b, got)
		}
	}
	if m.Digests(0, block/2) != nil {
		t.Fatal("a table was trusted at another block size")
	}
	m.SetDoneCRC(0, 6, time.Unix(0, 2), 1<<32)
	if m.Digests(0, block) != nil {
		t.Fatal("a table from an older iteration was trusted")
	}
	if m.Digests(1, block) != nil {
		t.Fatal("a slot with no table returned one")
	}
}
