package gpu

import (
	"bytes"
	"hash/crc32"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/portus-sys/portus/internal/model"
)

func placedFixture(t *testing.T, materialized bool) *PlacedModel {
	t.Helper()
	g := New("g0", 64<<20, materialized)
	p, err := Place(g, model.GPT("m", 2, 64, 256, 0))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlaceFillsIterationZero(t *testing.T) {
	p := placedFixture(t, true)
	if p.Iteration != 0 {
		t.Fatalf("fresh iteration = %d", p.Iteration)
	}
	if bad := p.VerifyIteration(0); bad != -1 {
		t.Fatalf("tensor %d does not hold iteration-0 weights", bad)
	}
}

func TestApplyUpdateChangesEveryTensor(t *testing.T) {
	p := placedFixture(t, true)
	before := make([]uint64, len(p.Offs))
	for i := range p.Offs {
		before[i] = p.TensorStamp(i)
	}
	p.ApplyUpdate(1)
	for i := range p.Offs {
		if p.TensorStamp(i) == before[i] {
			t.Fatalf("tensor %d unchanged by update", i)
		}
	}
	if bad := p.VerifyIteration(1); bad != -1 {
		t.Fatalf("tensor %d wrong after update", bad)
	}
	if p.VerifyIteration(0) == -1 {
		t.Fatal("old iteration still verifies after update")
	}
}

func TestExpectedStampModeAware(t *testing.T) {
	mat := placedFixture(t, true)
	virt := placedFixture(t, false)
	// Materialized: stamp is the pattern hash; virtual: the raw seed.
	if mat.ExpectedStamp(0, 3) == mat.Spec.TensorSeed(0, 3) {
		t.Fatal("materialized expected stamp should be hashed, not the seed")
	}
	if virt.ExpectedStamp(0, 3) != virt.Spec.TensorSeed(0, 3) {
		t.Fatal("virtual expected stamp should be the seed")
	}
}

func TestPlaceFailsWhenHBMExhausted(t *testing.T) {
	g := New("tiny", 1<<10, false)
	if _, err := Place(g, model.GPT("m", 2, 64, 256, 0)); err == nil {
		t.Fatal("placement into 1KiB HBM succeeded")
	}
}

// TestBlockDigestsAreTheCRCPair: a materialized model's block digests
// are the CRC-32C / CRC-32 pair over each block's bytes, recomputed
// here from scratch.
func TestBlockDigestsAreTheCRCPair(t *testing.T) {
	const block = 4 << 10
	p := placedFixture(t, true)
	p.ApplySparseUpdate(1, block, 0.3)
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	var want []uint64
	for i, tm := range p.Spec.Tensors {
		b := p.GPU.Mem().Bytes(p.Offs[i], tm.Size)
		for off := int64(0); off < tm.Size; off += block {
			blk := b[off:min(off+block, tm.Size)]
			want = append(want, uint64(crc32.Checksum(blk, castagnoli))<<32|uint64(crc32.ChecksumIEEE(blk)))
		}
	}
	got := p.BlockDigests(block)
	if len(got) != len(want) {
		t.Fatalf("%d digests, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("block %d digest %016x, want %016x", i, got[i], want[i])
		}
	}
	if p.VerifyDigests(block, want) != -1 {
		t.Fatal("VerifyDigests rejects the from-scratch vector")
	}
}

// TestSparseUpdateWritesPatternBlocks: every block a sparse update
// touches holds exactly Pattern(n, blockSeed), every other block is
// untouched — including the short tail block of a tensor.
func TestSparseUpdateWritesPatternBlocks(t *testing.T) {
	const block = 3000 // not a divisor of the tensor sizes: short tails
	p := placedFixture(t, true)
	mem := p.GPU.Mem()
	before := mem.Bytes(0, mem.Allocated())
	p.ApplySparseUpdate(1, block, 0.3)
	var dirty int
	for i, tm := range p.Spec.Tensors {
		for off := int64(0); off < tm.Size; off += block {
			n := min(block, tm.Size-off)
			at := p.Offs[i] + off
			got := mem.Bytes(at, n)
			if blockDirty(p.Spec.TensorSeed(i, 0), uint64(off/block), 1, 0.3) {
				dirty++
				if !bytes.Equal(got, Pattern(n, blockSeed(p.Spec.TensorSeed(i, 1), uint64(off/block)))) {
					t.Fatalf("tensor %d block at %d: not the block's pattern", i, off)
				}
			} else if !bytes.Equal(got, before[at:at+n]) {
				t.Fatalf("tensor %d clean block at %d changed", i, off)
			}
		}
	}
	if dirty == 0 {
		t.Fatal("no block dirtied")
	}
}

// TestSparseUpdateAllocatesNothing: after the first call, a materialized
// 2%-dirty sparse update refills dirty blocks from one reused buffer
// instead of allocating a block per write.
func TestSparseUpdateAllocatesNothing(t *testing.T) {
	const block = 64 << 10
	p := placedFixture(t, true)
	p.ApplySparseUpdate(1, block, 0.02)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for iter := uint64(2); iter < 12; iter++ {
		p.ApplySparseUpdate(iter, block, 0.02)
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / 10; per >= 1<<10 {
		t.Fatalf("ApplySparseUpdate allocated %d B per call, want < 1 KiB", per)
	}
}
