package store_test

import (
	"testing"

	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/store"
)

// FuzzOpenImage hands the offline repacker a damaged image: the
// fixture's metadata zone with patch written at off — the superblock,
// the ModelTable, an MIndex record, the digest region or the
// AllocTable. The namespace is opened the way portusctl -image repack
// opens it and, when store.Open accepts it, repacked. Neither may
// panic; a namespace too damaged to repack is refused with an error.
func FuzzOpenImage(f *testing.F) {
	pm, s, _ := fixture(f)
	fin, err := s.Lookup("finished")
	if err != nil {
		f.Fatal(err)
	}
	word := func(v uint64) []byte {
		b := make([]byte, 8)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		return b
	}
	allocTable := uint32(pm.MetaSize() - index.AllocTableLen)
	info := uint32(fin.InfoOff())
	// The persisted pointer of the finished model's newest tensor 0,
	// found by value in its MIndex record.
	paddr := info
	for rec := pm.MetaBytes(int64(info), 4096); string(rec[paddr-info:paddr-info+8]) != string(word(uint64(fin.PAddr[0][1]))); paddr++ {
	}
	for _, seed := range []struct {
		off   uint32
		patch []byte
	}{
		{0, word(0)},                              // superblock magic
		{32, word(1 << 40)},                       // count|generation word
		{64, word(uint64(info) + 1)},              // first table entry's MIndex offset
		{info, word(0xdeadbeef)},                  // MIndex magic
		{info + 4, word(1 << 30)},                 // tensor count
		{info + 500, word(1 << 50)},               // inside the version headers and tensor records
		{allocTable + 16, word(1 << 50)},          // bump pointer
		{allocTable + 32, word(16 << 20)},         // first AllocTable record's offset
		{allocTable + 32 + 8, word(1<<63 | 64)},   // its size
		{allocTable + 32 + 24*7 + 16, word(1)},    // an unused record marked used
		{allocTable + 32 + 24*2, word(1<<63 - 1)}, // a third record's offset
	} {
		f.Add(seed.off, seed.patch)
	}
	f.Fuzz(func(t *testing.T, off uint32, patch []byte) {
		pm, _, _ := fixture(t)
		at := int64(off) % pm.MetaSize()
		if max := pm.MetaSize() - at; int64(len(patch)) > max {
			patch = patch[:max]
		}
		pm.WriteMeta(at, patch)
		e, err := store.Open(store.Config{PMem: pm})
		if err != nil {
			return
		}
		e.RepackOffline()
	})
}
