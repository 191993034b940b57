package store_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"github.com/portus-sys/portus/internal/alloc"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/store"
)

// report lets legacyRun's body stay verbatim: its store parameter
// shadows the package name.
type report = store.OfflineReport

// legacyRun is the repacking algorithm exactly as it shipped before the
// storage-engine refactor moved it into internal/store. It is frozen
// here as the golden reference: portusctl -image repack must keep
// producing byte-identical images, because operators repack archived
// namespaces and diff/fingerprint them.
func legacyRun(pm *pmem.Device, store *index.Store) (report, error) {
	type keepEntry struct {
		m    *index.Model
		ti   int
		slot int
		off  int64
		size int64
	}
	var rep report
	before := store.Allocator().InUse()

	models, err := store.Models()
	if err != nil {
		return rep, fmt.Errorf("repack: listing models: %w", err)
	}

	var keep []keepEntry
	for _, m := range models {
		slot, _, ok := m.LatestDone()
		if !ok {
			if err := store.DeleteModel(m.Name); err != nil {
				return rep, fmt.Errorf("repack: removing %s: %w", m.Name, err)
			}
			rep.ModelsRemoved++
			continue
		}
		rep.ModelsKept++
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
	if err := store.Allocator().Rebuild(live); err != nil {
		return rep, fmt.Errorf("repack: rebuilding allocation table: %w", err)
	}
	if err := store.CompactTable(); err != nil {
		return rep, fmt.Errorf("repack: compacting ModelTable: %w", err)
	}
	rep.BytesInUse = store.Allocator().InUse()
	rep.BytesReclaimed = before - rep.BytesInUse
	return rep, nil
}

// TestOfflineGoldenByteEquivalence builds two identical namespaces,
// repacks one with the frozen pre-refactor algorithm and the other with
// the current store-backed entry point, and requires the durable images
// to match byte for byte.
func TestOfflineGoldenByteEquivalence(t *testing.T) {
	pmLegacy, sLegacy, _ := fixture(t)
	pmNew, sNew, _ := fixture(t)

	repLegacy, err := legacyRun(pmLegacy, sLegacy)
	if err != nil {
		t.Fatal(err)
	}
	repNew, err := store.Offline(pmNew, sNew)
	if err != nil {
		t.Fatal(err)
	}
	if repLegacy != repNew {
		t.Fatalf("reports diverged:\nlegacy %+v\nnew    %+v", repLegacy, repNew)
	}

	var imgLegacy, imgNew bytes.Buffer
	if err := pmLegacy.SaveImage(&imgLegacy); err != nil {
		t.Fatal(err)
	}
	if err := pmNew.SaveImage(&imgNew); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imgLegacy.Bytes(), imgNew.Bytes()) {
		a, b := imgLegacy.Bytes(), imgNew.Bytes()
		if len(a) != len(b) {
			t.Fatalf("image sizes diverged: legacy %d, new %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("images diverge at byte %d: legacy 0x%02x, new 0x%02x", i, a[i], b[i])
			}
		}
	}
}
