package store

// This file owns the content stamp persisted with every DONE flag: how a
// version slot is hashed, how a mismatch is reported, and the one
// builder of the portable archive, which checks the bytes it copies
// against the stamp. The daemon's commit and restore verify, and both
// archive paths (the daemon's DUMP and portusctl -image dump), go
// through it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/portus-sys/portus/internal/delta"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/serialize"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// StampOf tags a slot's CRC-32C as its stamp (see ContentCRC).
func StampOf(crc uint32) uint64 { return 1<<32 | uint64(crc) }

// ContentCRC stamps one version slot's tensor extents: CRC-32C (the
// checksum iSCSI, ext4 and RocksDB use for this job, one SSE4.2
// instruction per 8 bytes) of the actual PMem bytes, hashed in place, in
// materialized mode, or of the extents' content fingerprints in virtual
// mode (Fingerprint, not StampOf: a delta-written slot holds pulled and
// copied-forward fragments side by side, which StampOf cannot
// summarize). Bit 32 is always set, so a stamp can never read as 0, the
// header's "stored without a stamp". Replicas that assembled the same
// content compute the same value, so the stamp identifies the copy's
// content, not its location or how it got there.
func ContentCRC(pm *pmem.Device, m *index.Model, slot int) uint64 {
	h := crc32.New(castagnoli)
	data := pm.Data()
	var b [8]byte
	for i := range m.Tensors {
		ext := m.TensorData(i, slot)
		if data.Materialized() {
			data.HashTo(h, ext.Off, ext.Size)
		} else {
			binary.LittleEndian.PutUint64(b[:], data.Fingerprint(ext.Off, ext.Size))
			h.Write(b[:])
		}
	}
	return StampOf(h.Sum32())
}

// TableJoins reports whether digest table t's CRC-32C halves join to
// stamp, the fingerprint of m's slot that t describes.
func TableJoins(m *index.Model, t *delta.Table, stamp uint64) bool {
	return StampOf(delta.CRC32C(m.Sizes(), t.BlockBytes, t.Digests)) == stamp
}

// BadBlocks describes how slot's bytes differ from the digest table t:
// how many blocks' CRC-32C is not their digest's high word, and the
// first of them.
func BadBlocks(pm *pmem.Device, m *index.Model, slot int, t *delta.Table) string {
	data := pm.Data()
	bad, i, off := delta.Mismatch(m.Sizes(), t.BlockBytes, t.Digests, func(i int, off, n int64) uint32 {
		return memdev.CopyCRC(nil, 0, data, m.TensorData(i, slot).Off+off, n, 0)
	})
	if bad == 0 {
		return "every block matches its digest"
	}
	return fmt.Sprintf("%d of %d blocks differ from their digests, the first in tensor %q at byte %d",
		bad, len(t.Digests), m.Tensors[i].Name, off)
}

// Check hashes DONE version v of m, held in slot, and compares it with
// the stamp persisted with v's DONE flag. It returns the computed stamp
// and, on a mismatch, the refusal to report (see stampErr).
func Check(pm *pmem.Device, m *index.Model, slot int, v index.Version) (uint64, error) {
	got := ContentCRC(pm, m, slot)
	return got, stampErr(pm, m, slot, v, got)
}

// stampErr is the refusal of version v, held in slot, whose bytes hash
// to got: nil when got is v's stamp or v carries none (stamp 0, a
// version stored without one). When the slot's digest table is trusted
// on a materialized zone, the refusal names the first bad block.
func stampErr(pm *pmem.Device, m *index.Model, slot int, v index.Version, got uint64) error {
	if v.CRC == 0 || got == v.CRC {
		return nil
	}
	msg := fmt.Sprintf("iteration %d failed integrity check (stored CRC %016x, computed %016x)", v.Iteration, v.CRC, got)
	if t := m.Digests(slot, 0); t != nil && pm.Materialized() {
		msg += ": " + BadBlocks(pm, m, slot, t)
	}
	return errors.New(msg)
}

// Archive builds the portable container (§IV-b) of DONE version v of m,
// held in slot: every tensor's bytes on a materialized zone, its content
// stamp on a virtual one. It is the one place a version is serialized
// out of PMem. Nothing orders an archive against a commit into the slot
// or a repack move, so the bytes are checked after they are copied: they
// must hash to v's stamp, or Archive refuses them with Check's error.
func Archive(pm *pmem.Device, m *index.Model, slot int, v index.Version) (*serialize.Checkpoint, error) {
	data := pm.Data()
	ckpt := &serialize.Checkpoint{Model: m.Name, Iteration: v.Iteration}
	h := crc32.New(castagnoli)
	var b [8]byte
	for i, tm := range m.Tensors {
		ext := m.TensorData(i, slot)
		blob := serialize.Blob{Meta: tm}
		if data.Materialized() {
			blob.Data = data.Bytes(ext.Off, ext.Size)
			h.Write(blob.Data)
		} else {
			blob.Virtual = true
			blob.Stamp = data.StampOf(ext.Off, ext.Size)
			binary.LittleEndian.PutUint64(b[:], data.Fingerprint(ext.Off, ext.Size))
			h.Write(b[:])
		}
		ckpt.Tensors = append(ckpt.Tensors, blob)
	}
	if err := stampErr(pm, m, slot, v, StampOf(h.Sum32())); err != nil {
		return nil, err
	}
	return ckpt, nil
}
