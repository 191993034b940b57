// Package gpu models the compute-node GPUs whose memory Portus
// checkpoints. A GPU owns a memdev device for its HBM; tensors are
// placed with a bump allocator exactly as a framework's caching
// allocator pre-allocates them, and their addresses stay fixed for the
// lifetime of a training job — the property Portus exploits to register
// memory regions once (§III-C).
//
// Remote-access asymmetry (the 5.8 GB/s BAR read cap, writes unaffected)
// is charged by the rdma layer based on the device kind; this package
// only holds state.
package gpu

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"github.com/portus-sys/portus/internal/memdev"
)

// GPU is one device on a compute node.
type GPU struct {
	id  string
	mem *memdev.Device
}

// New creates a GPU with the given HBM capacity. materialized selects
// real bytes versus stamp tracking for its memory.
func New(id string, hbmBytes int64, materialized bool) *GPU {
	return &GPU{id: id, mem: memdev.New("gpu:"+id, memdev.GPU, hbmBytes, materialized)}
}

// ID returns the GPU's identifier.
func (g *GPU) ID() string { return g.id }

// Mem returns the GPU's memory device, registrable as RDMA MRs.
func (g *GPU) Mem() *memdev.Device { return g.mem }

// PlaceTensor reserves size bytes of HBM for a tensor and returns its
// device address.
func (g *GPU) PlaceTensor(size int64) (int64, error) {
	off, err := g.mem.Alloc(size)
	if err != nil {
		return 0, fmt.Errorf("gpu %s: %w", g.id, err)
	}
	return off, nil
}

// FillTensor writes deterministic synthetic content derived from seed
// into [off, off+n): real pattern bytes on a materialized device, a
// content stamp otherwise. Content written with equal seeds compares
// equal under memdev.Device.StampOf in either mode.
func (g *GPU) FillTensor(off, n int64, seed uint64) {
	FillRegion(g.mem, off, n, seed)
}

// FillRegion is FillTensor for an arbitrary device (exported for tests
// of other packages that need deterministic content).
func FillRegion(d *memdev.Device, off, n int64, seed uint64) {
	if !d.Materialized() {
		d.WriteStamp(off, n, seed)
		return
	}
	d.Write(off, Pattern(n, seed))
}

// Pattern returns n deterministic bytes derived from seed (a splitmix64
// stream), used as synthetic tensor weights.
func Pattern(n int64, seed uint64) []byte {
	return fillPattern(make([]byte, n), seed)
}

// fillPattern overwrites buf with the pattern of length len(buf) derived
// from seed and returns it, so a caller writing many regions can reuse
// one buffer.
func fillPattern(buf []byte, seed uint64) []byte {
	x := seed
	var word [8]byte
	for i := 0; i < len(buf); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(word[:], z)
		copy(buf[i:], word[:])
	}
	return buf
}

// PatternStamp returns the FNV-64a hash of Pattern(n, seed), i.e. the
// stamp a materialized device reports for that content. Virtual devices
// report seed itself; tests should compare stamps within one mode.
func PatternStamp(n int64, seed uint64) uint64 {
	h := fnv.New64a()
	h.Write(Pattern(n, seed))
	return h.Sum64()
}
