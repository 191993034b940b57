package index

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/portus-sys/portus/internal/pmem"
)

// buildValidImage creates a formatted namespace with two models and a
// committed checkpoint version.
func buildValidImage(t testing.TB) *pmem.Device {
	pm := pmem.New(pmem.Config{Name: "pm", DataSize: 64 << 20, MetaSize: 8 << 20, Materialized: false})
	s, err := Format(pm, 16)
	if err != nil {
		t.Fatal(err)
	}
	tensors := []TensorMeta{
		{Name: "w0", DType: F32, Dims: []int64{256}, Size: 1024},
		{Name: "w1", DType: F32, Dims: []int64{64, 64}, Size: 16384},
	}
	for _, name := range []string{"alpha", "beta"} {
		m, err := s.CreateModel(name, tensors)
		if err != nil {
			t.Fatal(err)
		}
		m.SetActive(0, 7)
		m.SetDone(0, 7, time.Unix(0, 1))
	}
	return pm
}

// TestCorruptionNeverPanics flips random bytes across the metadata zone
// and requires Open + Models to either succeed or fail with an error —
// never panic. This is the safety contract of portusctl's
// parse-from-raw-image path.
func TestCorruptionNeverPanics(t *testing.T) {
	prop := func(offsets []uint32, values []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on corrupt image: %v", r)
				ok = false
			}
		}()
		pm := buildValidImage(t)
		n := len(offsets)
		if len(values) < n {
			n = len(values)
		}
		for i := 0; i < n; i++ {
			off := int64(offsets[i]) % pm.MetaSize()
			pm.WriteMeta(off, []byte{values[i]})
		}
		s, err := Open(pm)
		if err != nil {
			return true // rejecting a corrupt image is correct
		}
		models, err := s.Models()
		if err != nil {
			return true
		}
		for _, m := range models {
			_ = m.TotalSize()
			_, _, _ = m.LatestDone()
			for i := range m.Tensors {
				for v := 0; v < 2; v++ {
					_ = m.TensorData(i, v)
				}
			}
		}
		_, _ = s.Lookup("alpha")
		_ = s.Names()
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestTargetedCorruption drives specific corruption sites through the
// validation paths.
func TestTargetedCorruption(t *testing.T) {
	corrupt := func(mutate func(pm *pmem.Device)) error {
		pm := buildValidImage(t)
		mutate(pm)
		s, err := Open(pm)
		if err != nil {
			return err
		}
		_, err = s.Models()
		return err
	}

	// Superblock table capacity pointing past the zone.
	err := corrupt(func(pm *pmem.Device) {
		pm.WriteMeta(sbTableCap, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f})
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized table cap: err = %v, want ErrCorrupt", err)
	}

	// ModelTable entry pointing outside the metadata zone: the entry
	// must read as a tombstone, not crash.
	pm := buildValidImage(t)
	s, err := Open(pm)
	if err != nil {
		t.Fatal(err)
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	pm.WriteMeta(superSize, huge) // first entry's infoOff
	names := s.Names()
	if len(names) != 1 {
		t.Errorf("names after pointer corruption = %v, want just the intact model", names)
	}

	// MIndex tensor count overflowing the zone.
	pm2 := buildValidImage(t)
	s2, err := Open(pm2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s2.Lookup("alpha")
	if err != nil {
		t.Fatal(err)
	}
	pm2.WriteMeta(m.InfoOff()+4, []byte{0xff, 0xff, 0xff, 0x7f})
	if _, err := s2.Lookup("alpha"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tensor-count corruption: err = %v, want ErrCorrupt", err)
	}
}

// TestSuperblockFormatIsRead: Format writes format 2; a format-1 image
// (CRC-64 stamps) opens with every version's stamp dropped — DONE and
// restorable, nothing to check — and is format 2 from then on, however
// many times power fails during the upgrade; formats this build does not
// know are refused.
func TestSuperblockFormatIsRead(t *testing.T) {
	const legacyStamp = 0xfeedfacecafebeef // what a CRC-64 stamp looks like
	v1Image := func() *pmem.Device {
		pm := buildValidImage(t)
		s, err := Open(pm)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"alpha", "beta"} {
			m, err := s.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			m.SetDoneCRC(0, 7, time.Unix(0, 1), legacyStamp)
		}
		setFormat(pm, 1)
		return pm
	}
	format := func(pm *pmem.Device) uint64 {
		return binary.LittleEndian.Uint64(pm.MetaBytes(sbVersion, 8))
	}
	checkUpgraded := func(t *testing.T, pm *pmem.Device, s *Store) {
		t.Helper()
		for _, name := range []string{"alpha", "beta"} {
			m, err := s.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if h := m.VersionHeader(0); h.State != StateDone || h.Iteration != 7 || h.CRC != 0 {
				t.Fatalf("%s slot 0 after the upgrade = %+v, want DONE at 7 without a stamp", name, h)
			}
		}
		pm.Crash() // the upgrade must be durable, not just visible
		if got := format(pm); got != formatVersion {
			t.Fatalf("superblock format after the upgrade = %d, want %d", got, formatVersion)
		}
	}

	if got := format(buildValidImage(t)); got != 2 {
		t.Fatalf("Format wrote superblock format %d, want 2", got)
	}

	pm := v1Image()
	s, err := Open(pm)
	if err != nil {
		t.Fatalf("format-1 image refused: %v", err)
	}
	checkUpgraded(t, pm, s)
	// The next commit stamps the new way, and a reopen keeps it.
	m, _ := s.Lookup("alpha")
	m.SetActive(1, 8)
	m.SetDoneCRC(1, 8, time.Unix(0, 2), 1<<32|0xc0ffee)
	if s, err = Open(pm); err != nil {
		t.Fatal(err)
	}
	m, _ = s.Lookup("alpha")
	if h := m.VersionHeader(1); h.CRC != 1<<32|0xc0ffee {
		t.Fatalf("a format-2 stamp did not survive a reopen: %+v", h)
	}

	// Power fails after each persist of the upgrade in turn.
	for k := int64(0); ; k++ {
		pm := v1Image()
		pm.FailAfter(k)
		if _, err := Open(pm); err != nil {
			t.Fatal(err)
		}
		finished := !pm.Dark()
		pm.Crash()
		s, err := Open(pm)
		if err != nil {
			t.Fatalf("reopen after power failed at persist %d of the upgrade: %v", k, err)
		}
		checkUpgraded(t, pm, s)
		if finished {
			break
		}
	}

	for _, bad := range []uint64{0, 3, 1 << 40} {
		pm := buildValidImage(t)
		setFormat(pm, bad)
		if _, err := Open(pm); !errors.Is(err, ErrCorrupt) {
			t.Errorf("superblock format %d: err = %v, want ErrCorrupt", bad, err)
		}
	}
}

func setFormat(pm *pmem.Device, v uint64) {
	pm.WriteMeta(sbVersion, binary.LittleEndian.AppendUint64(nil, v))
	pm.FlushMeta(sbVersion, 8)
}
