package store

// This file is the offline repacker (§III-D2, Figure 7): the engine's
// maintenance algorithm in its original, whole-namespace form, for
// images no daemon has mounted. portusctl's -image repack command runs
// this path; its persistent write sequence is unchanged from the
// pre-engine tool, so repacked images stay byte-identical.

import (
	"fmt"
	"sort"

	"github.com/portus-sys/portus/internal/alloc"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/pmem"
)

// OfflineReport summarizes one offline repacking pass.
type OfflineReport struct {
	ModelsKept     int
	ModelsRemoved  int
	SlotsReclaimed int
	BytesMoved     int64
	// BytesInUse is the data-zone footprint after repacking.
	BytesInUse int64
	// BytesReclaimed is the space recovered versus before.
	BytesReclaimed int64
}

// String renders the report.
func (r OfflineReport) String() string {
	return fmt.Sprintf("repack: kept %d models, removed %d, reclaimed %d slots, moved %d bytes, in use %d, reclaimed %d bytes",
		r.ModelsKept, r.ModelsRemoved, r.SlotsReclaimed, r.BytesMoved, r.BytesInUse, r.BytesReclaimed)
}

// keepEntry is one TensorData extent that survives repacking.
type keepEntry struct {
	m    *index.Model
	ti   int
	slot int
	off  int64
	size int64
}

// Offline compacts the namespace in place. The daemon must not be
// serving checkpoints concurrently — unlike the engine's online pass,
// this rewrite reclaims non-latest slots and removes never-done models,
// which is only safe when no tenant can come back for them.
func Offline(pm *pmem.Device, idx *index.Store) (OfflineReport, error) {
	var rep OfflineReport
	before := idx.Allocator().InUse()

	models, err := idx.Models()
	if err != nil {
		return rep, fmt.Errorf("repack: listing models: %w", err)
	}

	var keep []keepEntry
	for _, m := range models {
		slot, _, ok := m.LatestDone()
		if !ok {
			// Scenario 2 of §III-D2: the job crashed before any version
			// completed; nothing here can ever be restored.
			if err := idx.DeleteModel(m.Name); err != nil {
				return rep, fmt.Errorf("repack: removing %s: %w", m.Name, err)
			}
			rep.ModelsRemoved++
			continue
		}
		rep.ModelsKept++
		// Scenario 1: only the newest done version stays; the other slot
		// (outdated or collapsed mid-write) is reclaimed.
		other := 1 - slot
		if m.HasSlot(other) {
			m.ClearVersion(other)
			rep.SlotsReclaimed++
		}
		for i := range m.Tensors {
			ext := m.TensorData(i, slot)
			keep = append(keep, keepEntry{m: m, ti: i, slot: slot, off: ext.Off, size: ext.Size})
		}
	}

	// Compact surviving extents to a contiguous prefix, ascending source
	// order so destinations never overtake sources.
	sort.Slice(keep, func(i, j int) bool { return keep[i].off < keep[j].off })
	cursor := int64(alloc.Align)
	var live []alloc.Extent
	for _, k := range keep {
		alignedSize := (k.size + alloc.Align - 1) / alloc.Align * alloc.Align
		if k.off != cursor {
			memdev.Copy(pm.Data(), cursor, pm.Data(), k.off, k.size)
			pm.FlushData(cursor, k.size)
			k.m.SetPAddr(k.ti, k.slot, cursor)
			rep.BytesMoved += k.size
		}
		live = append(live, alloc.Extent{Off: cursor, Size: alignedSize})
		cursor += alignedSize
	}
	if err := idx.Allocator().Rebuild(live); err != nil {
		return rep, fmt.Errorf("repack: rebuilding allocation table: %w", err)
	}
	// Restore the sorted-array invariant of the ModelTable (§III-D1),
	// dropping tombstones; the rewrite flips atomically between the two
	// table generations.
	if err := idx.CompactTable(); err != nil {
		return rep, fmt.Errorf("repack: compacting ModelTable: %w", err)
	}
	rep.BytesInUse = idx.Allocator().InUse()
	rep.BytesReclaimed = before - rep.BytesInUse
	return rep, nil
}
