package delta

import (
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"github.com/portus-sys/portus/internal/memdev"
)

func TestBlockCount(t *testing.T) {
	for _, tc := range []struct {
		sizes []int64
		block int64
		want  int
	}{
		{[]int64{64, 64}, 64, 2},
		{[]int64{65, 64}, 64, 3},
		{[]int64{1}, 64, 1},
		{[]int64{}, 64, 0},
		{[]int64{1000}, 256, 4},
	} {
		if got := BlockCount(tc.sizes, tc.block); got != tc.want {
			t.Errorf("BlockCount(%v, %d) = %d, want %d", tc.sizes, tc.block, got, tc.want)
		}
	}
}

func TestLayoutHashDiscriminates(t *testing.T) {
	a := LayoutHash([]int64{100, 200}, 64)
	if a != LayoutHash([]int64{100, 200}, 64) {
		t.Fatal("layout hash not deterministic")
	}
	for _, other := range []uint64{
		LayoutHash([]int64{100, 200}, 128), // different block size
		LayoutHash([]int64{200, 100}, 64),  // different order
		LayoutHash([]int64{100}, 64),       // different tensor count
	} {
		if other == a {
			t.Fatal("layout hash collision across different layouts")
		}
	}
}

func TestAppendDigests(t *testing.T) {
	var calls [][2]int64
	fp := func(off, n int64) uint64 {
		calls = append(calls, [2]int64{off, n})
		return uint64(off)<<32 | uint64(n)
	}
	got := AppendDigests(nil, fp, 1000, 250, 100)
	if len(got) != 3 {
		t.Fatalf("got %d digests, want 3", len(got))
	}
	wantCalls := [][2]int64{{1000, 100}, {1100, 100}, {1200, 50}}
	if !reflect.DeepEqual(calls, wantCalls) {
		t.Fatalf("fingerprint calls %v, want %v", calls, wantCalls)
	}
}

func TestThreeWay(t *testing.T) {
	sizes := []int64{300, 150} // blocks: t0: 3x100, t1: 100+50
	block := int64(100)
	// Block layout: [t0b0 t0b1 t0b2 t1b0 t1b1]
	incoming := []uint64{1, 2, 3, 4, 5}
	active := []uint64{1, 9, 9, 4, 5} // t0b1,t0b2 dirty
	target := []uint64{1, 0, 0, 0, 5} // holds t0b0 and t1b1 already

	d := ThreeWay(sizes, block, incoming, active, target)
	wantPull := []Extent{{Tensor: 0, TensorOff: 100, Size: 200, Block: 1}} // merged b1+b2
	wantCopy := []Extent{{Tensor: 1, TensorOff: 0, Size: 100, Block: 3}}   // t1b0
	wantSkip := []Extent{{Tensor: 0, TensorOff: 0, Size: 100, Block: 0}, {Tensor: 1, TensorOff: 100, Size: 50, Block: 4}}
	if !reflect.DeepEqual(d.Pull, wantPull) {
		t.Errorf("pull = %+v, want %+v", d.Pull, wantPull)
	}
	if !reflect.DeepEqual(d.Copy, wantCopy) {
		t.Errorf("copy = %+v, want %+v", d.Copy, wantCopy)
	}
	if !reflect.DeepEqual(d.Skip, wantSkip) {
		t.Errorf("skip = %+v, want %+v", d.Skip, wantSkip)
	}
	if d.PullBytes != 200 || d.CopyBytes != 100 || d.SkipBytes != 150 {
		t.Errorf("bytes pull/copy/skip = %d/%d/%d, want 200/100/150",
			d.PullBytes, d.CopyBytes, d.SkipBytes)
	}

	// Untrusted target: nothing skips, every clean block copies.
	d = ThreeWay(sizes, block, incoming, active, nil)
	if d.SkipBytes != 0 || d.CopyBytes != 250 || d.PullBytes != 200 {
		t.Errorf("nil-target bytes pull/copy/skip = %d/%d/%d, want 200/250/0",
			d.PullBytes, d.CopyBytes, d.SkipBytes)
	}

	// Extents never cross tensor boundaries even when block indices are
	// adjacent.
	incoming2 := []uint64{1, 2, 9, 9, 5}
	active2 := []uint64{1, 2, 3, 4, 5}
	d = ThreeWay(sizes, block, incoming2, active2, nil)
	wantPull = []Extent{{Tensor: 0, TensorOff: 200, Size: 100, Block: 2}, {Tensor: 1, TensorOff: 0, Size: 100, Block: 3}}
	if !reflect.DeepEqual(d.Pull, wantPull) {
		t.Errorf("cross-tensor pull = %+v, want %+v", d.Pull, wantPull)
	}
}

func TestTableMatches(t *testing.T) {
	tab := &Table{BlockBytes: 64, Layout: 7, Digests: make([]uint64, 5)}
	if !tab.Matches(64, 7, 5) {
		t.Fatal("matching table rejected")
	}
	if tab.Matches(128, 7, 5) || tab.Matches(64, 8, 5) || tab.Matches(64, 7, 4) {
		t.Fatal("mismatched table accepted")
	}
	var nilTab *Table
	if nilTab.Matches(64, 7, 5) {
		t.Fatal("nil table matched")
	}
}

// TestCRC32CFromDigests: the CRC-32C joined from a layout's block
// digests is the CRC-32C of the tensors' bytes back to back, and an
// extent's is the CRC-32C of the bytes it covers.
func TestCRC32CFromDigests(t *testing.T) {
	sizes := []int64{300, 1, 150, 0, 200}
	const block = 64
	var total int64
	for _, s := range sizes {
		total += s
	}
	dev := memdev.New("d", memdev.DRAM, total, true)
	b := make([]byte, total)
	rand.New(rand.NewSource(3)).Read(b)
	dev.Write(0, b)
	var digests []uint64
	var base int64
	for _, s := range sizes {
		digests = AppendDigests(digests, dev.Fingerprint, base, s, block)
		base += s
	}
	table := crc32.MakeTable(crc32.Castagnoli)
	if got, want := CRC32C(sizes, block, digests), crc32.Checksum(b, table); got != want {
		t.Fatalf("CRC32C from digests = %08x, bytes hash to %08x", got, want)
	}
	// Tensor 0's blocks 1 and 2: bytes [64, 300).
	x := Extent{Tensor: 0, TensorOff: 64, Size: 236, Block: 1}
	if got, want := CRC32C([]int64{x.Size}, block, digests[x.Block:]), crc32.Checksum(b[64:300], table); got != want {
		t.Fatalf("extent CRC32C = %08x, its bytes hash to %08x", got, want)
	}
}
