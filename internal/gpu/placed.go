package gpu

import (
	"fmt"

	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/model"
)

// PlacedModel is a model whose tensors live at fixed addresses in one
// GPU's memory — the framework-allocated layout whose stability Portus
// exploits to register memory regions once per training job.
type PlacedModel struct {
	Spec model.Spec
	GPU  *GPU
	Offs []int64 // device address of each tensor

	// Iteration tracks the training step whose weights currently occupy
	// the tensors (advanced by ApplyUpdate).
	Iteration uint64

	blockBuf []byte // ApplySparseUpdate's reused block buffer
}

// Place allocates every tensor of spec on g and fills iteration-0
// weights.
func Place(g *GPU, spec model.Spec) (*PlacedModel, error) {
	p := &PlacedModel{Spec: spec, GPU: g, Offs: make([]int64, len(spec.Tensors))}
	for i, tm := range spec.Tensors {
		off, err := g.PlaceTensor(tm.Size)
		if err != nil {
			return nil, fmt.Errorf("gpu: placing %s: %w", tm.Name, err)
		}
		p.Offs[i] = off
	}
	p.ApplyUpdate(0)
	return p, nil
}

// ApplyUpdate simulates the optimizer's update phase: every tensor's
// content becomes the deterministic weights of the given iteration.
func (p *PlacedModel) ApplyUpdate(iteration uint64) {
	p.Iteration = iteration
	for i, tm := range p.Spec.Tensors {
		p.GPU.FillTensor(p.Offs[i], tm.Size, p.Spec.TensorSeed(i, iteration))
	}
}

// ApplySparseUpdate simulates an iteration that touches only a fraction
// of the weights — the sparse/embedding/frozen-layer regime incremental
// checkpointing exploits. Across all tensors, each block-aligned range
// of blockBytes is rewritten with probability rate (deterministically,
// from the iteration and a per-block hash), receiving content derived
// from (block, iteration). Blocks never span tensors, matching the
// delta subsystem's digest layout, so a dirty block dirties exactly one
// digest.
func (p *PlacedModel) ApplySparseUpdate(iteration uint64, blockBytes int64, rate float64) {
	p.Iteration = iteration
	mem := p.GPU.Mem()
	// Tensors are bump-allocated in placement order, so collecting the
	// dirty blocks tensor-by-tensor yields an ascending batch; virtual
	// devices apply it in one merge pass instead of a write per block.
	var batch []memdev.StampRegion
	var buf []byte // materialized: one block buffer, refilled per dirty block
	if mem.Materialized() {
		if int64(len(p.blockBuf)) < blockBytes {
			p.blockBuf = make([]byte, blockBytes)
		}
		buf = p.blockBuf
	}
	for i, tm := range p.Spec.Tensors {
		base := p.Offs[i]
		for off := int64(0); off < tm.Size; off += blockBytes {
			n := blockBytes
			if tm.Size-off < n {
				n = tm.Size - off
			}
			if !blockDirty(p.Spec.TensorSeed(i, 0), uint64(off/blockBytes), iteration, rate) {
				continue
			}
			seed := blockSeed(p.Spec.TensorSeed(i, iteration), uint64(off/blockBytes))
			if buf != nil {
				mem.Write(base+off, fillPattern(buf[:n], seed))
			} else {
				batch = append(batch, memdev.StampRegion{Off: base + off, N: n, Stamp: seed})
			}
		}
	}
	mem.WriteStampBatch(batch)
}

// blockDirty decides deterministically whether a block mutates this
// iteration: a splitmix64 hash of (tensor identity, block index,
// iteration) compared against rate.
func blockDirty(tensorID, block, iteration uint64, rate float64) bool {
	x := tensorID ^ block*0x9e3779b97f4a7c15 ^ iteration*0xbf58476d1ce4e5b9
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53) < rate
}

// blockSeed derives a per-block content seed so neighboring dirty
// blocks never carry equal stamps (equal stamps would let memdev
// coalesce them into a region the digest layout does not expect).
func blockSeed(tensorSeed, block uint64) uint64 {
	x := tensorSeed + block*0x9e3779b97f4a7c15 + 1
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// BlockDigests returns the model's flattened per-block digest vector at
// the given block size: one memdev fingerprint per blockBytes-sized
// range of every tensor, in registration order — exactly what a delta
// client ships with DO_CHECKPOINT.
func (p *PlacedModel) BlockDigests(blockBytes int64) []uint64 {
	var out []uint64
	mem := p.GPU.Mem()
	for i, tm := range p.Spec.Tensors {
		base := p.Offs[i]
		for off := int64(0); off < tm.Size; off += blockBytes {
			n := blockBytes
			if tm.Size-off < n {
				n = tm.Size - off
			}
			out = append(out, mem.Fingerprint(base+off, n))
		}
	}
	return out
}

// VerifyDigests compares the model's current per-block digests against
// a previously captured vector, returning the index of the first
// mismatching block, or -1. This is the restore check for sparsely
// updated content, where no single iteration's ExpectedStamp describes
// a tensor.
func (p *PlacedModel) VerifyDigests(blockBytes int64, want []uint64) int {
	got := p.BlockDigests(blockBytes)
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

// TensorStamp returns the content fingerprint of tensor i as currently
// resident on the GPU.
func (p *PlacedModel) TensorStamp(i int) uint64 {
	return p.GPU.Mem().StampOf(p.Offs[i], p.Spec.Tensors[i].Size)
}

// ExpectedStamp returns the fingerprint tensor i must have when holding
// iteration's weights (mode-aware: pattern hash when materialized, raw
// seed otherwise).
func (p *PlacedModel) ExpectedStamp(i int, iteration uint64) uint64 {
	seed := p.Spec.TensorSeed(i, iteration)
	if p.GPU.Mem().Materialized() {
		return PatternStamp(p.Spec.Tensors[i].Size, seed)
	}
	return seed
}

// VerifyIteration checks every tensor holds exactly iteration's weights,
// returning the first mismatching tensor index, or -1.
func (p *PlacedModel) VerifyIteration(iteration uint64) int {
	for i := range p.Spec.Tensors {
		if p.TensorStamp(i) != p.ExpectedStamp(i, iteration) {
			return i
		}
	}
	return -1
}
