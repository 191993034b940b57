package memdev

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaterializedReadWrite(t *testing.T) {
	d := New("dram0", DRAM, 1024, true)
	msg := []byte("hello, tensors")
	d.Write(100, msg)
	got := d.Bytes(100, int64(len(msg)))
	if !bytes.Equal(got, msg) {
		t.Fatalf("read back %q, want %q", got, msg)
	}
}

func TestMaterializedCopy(t *testing.T) {
	src := New("a", GPU, 256, true)
	dst := New("b", PMEM, 256, true)
	src.Write(0, []byte{1, 2, 3, 4})
	Copy(dst, 10, src, 0, 4)
	if got := dst.Bytes(10, 4); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("copied bytes = %v", got)
	}
}

func TestMaterializedStampMatchesContent(t *testing.T) {
	a := New("a", DRAM, 64, true)
	b := New("b", DRAM, 64, true)
	a.Write(0, []byte("same"))
	b.Write(8, []byte("same"))
	if a.StampOf(0, 4) != b.StampOf(8, 4) {
		t.Fatal("equal content produced different stamps")
	}
	b.Write(8, []byte("diff"))
	if a.StampOf(0, 4) == b.StampOf(8, 4) {
		t.Fatal("different content produced equal stamps")
	}
}

func TestVirtualStampPropagation(t *testing.T) {
	src := New("gpu", GPU, 1<<40, false) // 1 TiB costs nothing
	dst := New("pmem", PMEM, 1<<40, false)
	src.WriteStamp(1<<30, 4<<20, 0xdeadbeef)
	Copy(dst, 2<<30, src, 1<<30, 4<<20)
	if got := dst.StampOf(2<<30, 4<<20); got != 0xdeadbeef {
		t.Fatalf("stamp after copy = %#x, want 0xdeadbeef", got)
	}
}

func TestVirtualOverwriteInvalidates(t *testing.T) {
	d := New("v", DRAM, 1024, false)
	d.WriteStamp(0, 100, 1)
	d.WriteStamp(50, 100, 2) // overlaps the first region
	if got := d.StampOf(0, 100); got != 0 {
		t.Fatalf("stale region stamp = %d, want 0 after overlapping write", got)
	}
	if got := d.StampOf(50, 100); got != 2 {
		t.Fatalf("new region stamp = %d, want 2", got)
	}
}

func TestVirtualUnwrittenRegionIsZero(t *testing.T) {
	d := New("v", DRAM, 1024, false)
	if d.StampOf(10, 10) != 0 {
		t.Fatal("unwritten region has nonzero stamp")
	}
}

func TestMixedModeCopyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mixed-mode copy did not panic")
		}
	}()
	Copy(New("a", DRAM, 8, true), 0, New("b", DRAM, 8, false), 0, 8)
}

func TestOutOfBoundsPanics(t *testing.T) {
	d := New("a", DRAM, 8, true)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds access did not panic")
		}
	}()
	d.Write(4, []byte("too long"))
}

func TestAllocBump(t *testing.T) {
	d := New("gpu", GPU, 100, true)
	a, err := d.Alloc(40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Alloc(60)
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 || b != 40 {
		t.Fatalf("alloc offsets = %d, %d; want 0, 40", a, b)
	}
	if d.Allocated() != 100 {
		t.Fatalf("Allocated = %d, want 100", d.Allocated())
	}
	if _, err := d.Alloc(1); err == nil {
		t.Fatal("over-allocation succeeded")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{DRAM: "dram", GPU: "gpu", PMEM: "pmem", NVMe: "nvme"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// Property: for any sequence of disjoint stamped writes, every region
// reads back its own stamp.
func TestDisjointStampsProperty(t *testing.T) {
	prop := func(stamps []uint64) bool {
		if len(stamps) > 64 {
			stamps = stamps[:64]
		}
		d := New("v", DRAM, int64(len(stamps)+1)*128, false)
		for i, s := range stamps {
			d.WriteStamp(int64(i)*128, 128, s)
		}
		for i, s := range stamps {
			if d.StampOf(int64(i)*128, 128) != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualChunkedCopyReassembles(t *testing.T) {
	src := New("gpu", GPU, 1<<30, false)
	dst := New("pmem", PMEM, 1<<30, false)
	const base, size = int64(4 << 20), int64(16 << 20)
	src.WriteStamp(base, size, 0xfeedface)
	// Copy in unequal chunks, out of order.
	for _, c := range []struct{ off, n int64 }{
		{8 << 20, 4 << 20}, {0, 8 << 20}, {12 << 20, 4 << 20},
	} {
		Copy(dst, 1<<20+c.off, src, base+c.off, c.n)
	}
	if got := dst.StampOf(1<<20, size); got != 0xfeedface {
		t.Fatalf("reassembled stamp = %#x, want 0xfeedface", got)
	}
}

func TestVirtualSubRangeCopyOfFragment(t *testing.T) {
	a := New("a", DRAM, 1<<20, false)
	b := New("b", DRAM, 1<<20, false)
	c := New("c", DRAM, 1<<20, false)
	a.WriteStamp(0, 1024, 42)
	// Move the two halves to b, then rebuild the whole on c from b's
	// fragments: stamps must survive two hops of sub-range copies.
	Copy(b, 0, a, 0, 512)
	Copy(b, 512, a, 512, 512)
	Copy(c, 0, b, 0, 512)
	Copy(c, 512, b, 512, 512)
	if got := c.StampOf(0, 1024); got != 42 {
		t.Fatalf("two-hop chunked stamp = %d, want 42", got)
	}
}

func TestVirtualIncompleteFragmentReadsZero(t *testing.T) {
	src := New("s", DRAM, 4096, false)
	dst := New("d", DRAM, 4096, false)
	src.WriteStamp(0, 1024, 9)
	Copy(dst, 0, src, 0, 512) // only half arrives
	if got := dst.StampOf(0, 1024); got != 0 {
		t.Fatalf("half-copied region stamp = %d, want 0", got)
	}
	if got := dst.StampOf(0, 512); got != 0 {
		t.Fatalf("bare fragment stamp = %d, want 0 (not full content)", got)
	}
}

func TestVirtualFragmentOverwriteDrops(t *testing.T) {
	src := New("s", DRAM, 4096, false)
	dst := New("d", DRAM, 4096, false)
	src.WriteStamp(0, 1024, 7)
	Copy(dst, 0, src, 0, 512)
	Copy(dst, 512, src, 512, 512)
	dst.WriteStamp(256, 64, 3) // punch a hole mid-region
	if got := dst.StampOf(0, 1024); got != 0 {
		t.Fatalf("punched region stamp = %d, want 0", got)
	}
	if got := dst.StampOf(256, 64); got != 3 {
		t.Fatalf("hole stamp = %d, want 3", got)
	}
}

func TestStampsOmitsFragments(t *testing.T) {
	src := New("s", DRAM, 4096, false)
	dst := New("d", DRAM, 4096, false)
	src.WriteStamp(0, 1024, 11)
	src.WriteStamp(2048, 256, 12)
	Copy(dst, 0, src, 0, 512)       // incomplete: fragment only
	Copy(dst, 2048, src, 2048, 256) // complete
	regions := dst.Stamps()
	if len(regions) != 1 {
		t.Fatalf("Stamps() = %v, want exactly the complete region", regions)
	}
	if r := regions[0]; r.Off != 2048 || r.N != 256 || r.Stamp != 12 {
		t.Fatalf("Stamps()[0] = %+v", r)
	}
}

// Property: copying any materialized region preserves byte equality.
func TestCopyPreservesBytesProperty(t *testing.T) {
	prop := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		src := New("s", DRAM, int64(len(data)), true)
		dst := New("d", DRAM, int64(len(data)), true)
		src.Write(0, data)
		Copy(dst, 0, src, 0, int64(len(data)))
		return bytes.Equal(dst.Bytes(0, int64(len(data))), data) &&
			src.StampOf(0, int64(len(data))) == dst.StampOf(0, int64(len(data)))
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
