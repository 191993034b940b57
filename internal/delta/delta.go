// Package delta implements block-level incremental checkpointing: every
// tensor is cut into fixed-size blocks, each block gets a 64-bit content
// digest, and a three-way diff between the incoming digest vector and
// the digest tables persisted for the two version slots decides, per
// block, whether it must be pulled over RDMA (content changed on the
// client), copy-forwarded locally in PMem (unchanged, but the target
// slot holds an older version), or skipped entirely (the target slot
// already holds it).
//
// Blocks never span tensors: tensor i contributes ceil(size_i/block)
// blocks, the last one possibly short, and the model's digest vector is
// the concatenation of the per-tensor block digests in registration
// order. A layout hash over (digest kind, block size, tensor sizes)
// guards every comparison — vectors from different layouts are never
// diffed, they force a full checkpoint instead.
//
// The package is pure data-plane math: it knows nothing about PMem,
// RDMA, or the wire protocol. The client computes digests over GPU
// memory, the daemon persists the client's vector verbatim alongside the
// version header (package index) and plans transfers from the diff
// (package datapath).
package delta

import (
	"encoding/binary"
	"hash/fnv"
)

// DefaultBlockBytes is the digest granularity when none is configured.
// 64 KiB balances digest-table size (16 B/MiB of model) against the
// per-block false-sharing cost of pulling a whole block for a one-byte
// change.
const DefaultBlockBytes = 64 << 10

// BlockCount returns the total number of digest blocks for the given
// tensor sizes: the per-tensor ceiling division, summed.
func BlockCount(sizes []int64, block int64) int {
	var n int64
	for _, s := range sizes {
		n += (s + block - 1) / block
	}
	return int(n)
}

// digestKind names the block digest function: on materialized memory,
// memdev.Device.Fingerprint's CRC-32C/CRC-32 pair. LayoutHash mixes it
// in, so a table persisted under another digest function (the FNV-64a
// digests of earlier builds) never matches and its model falls back to
// one full pull instead of diffing incomparable digests.
const digestKind = "crc32c|crc32"

// LayoutHash fingerprints the blocking layout (digest kind, block size
// plus every tensor size, in order). Two digest vectors are comparable
// only when their layout hashes agree.
func LayoutHash(sizes []int64, block int64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(digestKind))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(block))
	h.Write(b[:])
	for _, s := range sizes {
		binary.LittleEndian.PutUint64(b[:], uint64(s))
		h.Write(b[:])
	}
	return h.Sum64()
}

// AppendDigests appends one digest per block of a tensor occupying
// [base, base+size) to dst and returns the extended slice. fp is the
// device's content fingerprint (memdev.Device.Fingerprint).
func AppendDigests(dst []uint64, fp func(off, n int64) uint64, base, size, block int64) []uint64 {
	for off := int64(0); off < size; off += block {
		n := block
		if size-off < n {
			n = size - off
		}
		dst = append(dst, fp(base+off, n))
	}
	return dst
}

// Extent is one contiguous dirty byte range within a single tensor, in
// tensor-relative coordinates. Adjacent dirty blocks of the same tensor
// merge into one extent.
type Extent struct {
	Tensor    int
	TensorOff int64
	Size      int64
}

// Diff is the transfer plan a three-way digest comparison yields: Pull
// extents must move client→PMem over the fabric, Copy extents are
// satisfied locally by copying active-slot→target-slot in PMem, and
// SkipBytes counts content the target slot already holds.
type Diff struct {
	Pull      []Extent
	Copy      []Extent
	PullBytes int64
	CopyBytes int64
	SkipBytes int64
}

// ThreeWay diffs the incoming digest vector against the active slot's
// table (what the newest committed checkpoint holds) and the target
// slot's table (what the slot about to be overwritten holds). target may
// be nil — an untrusted or missing target table — in which case nothing
// is skipped: every clean block is copy-forwarded. incoming and active
// must be BlockCount(sizes, block) long; callers enforce that via
// LayoutHash before diffing.
func ThreeWay(sizes []int64, block int64, incoming, active, target []uint64) Diff {
	var d Diff
	idx := 0
	for ti, size := range sizes {
		for off := int64(0); off < size; off += block {
			n := block
			if size-off < n {
				n = size - off
			}
			in := incoming[idx]
			switch {
			case in != active[idx]:
				d.Pull = appendExtent(d.Pull, ti, off, n)
				d.PullBytes += n
			case target != nil && target[idx] == in:
				d.SkipBytes += n
			default:
				d.Copy = appendExtent(d.Copy, ti, off, n)
				d.CopyBytes += n
			}
			idx++
		}
	}
	return d
}

func appendExtent(list []Extent, tensor int, off, n int64) []Extent {
	if k := len(list) - 1; k >= 0 && list[k].Tensor == tensor && list[k].TensorOff+list[k].Size == off {
		list[k].Size += n
		return list
	}
	return append(list, Extent{Tensor: tensor, TensorOff: off, Size: n})
}

// Table is one slot's persisted digest record: the client's digest
// vector at the checkpoint that slot holds, plus everything needed to
// decide whether it is comparable with an incoming vector.
type Table struct {
	BlockBytes int64
	Iteration  uint64
	Layout     uint64
	Digests    []uint64
}

// Matches reports whether the table is comparable with a vector computed
// under (block, layout, count).
func (t *Table) Matches(block int64, layout uint64, count int) bool {
	return t != nil && t.BlockBytes == block && t.Layout == layout && len(t.Digests) == count
}
