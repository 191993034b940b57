package memdev

import "testing"

// TestWriteTrackerGranules: tracking off answers "written" for every
// range; once on, a write marks exactly the granules it overlaps, bytes
// past the allocation watermark read as written, and an Alloc after
// TrackWrites extends the table instead.
func TestWriteTrackerGranules(t *testing.T) {
	const g = TrackGranule
	d := New("gpu", GPU, 16*g, true)
	if _, err := d.Alloc(4*g + 10); err != nil {
		t.Fatal(err)
	}
	if !d.WrittenSince(^uint64(0), 0, 1) {
		t.Fatal("untracked device reports a range unwritten")
	}
	d.Write(0, []byte{1}) // not recorded: tracking is off
	d.TrackWrites()
	gen, _ := d.WriteClock()
	for _, r := range [][2]int64{{0, g}, {g, 3*g + 10}} {
		if d.WrittenSince(gen, r[0], r[1]) {
			t.Fatalf("[%d,+%d) written with nothing written since generation %d", r[0], r[1], gen)
		}
	}
	if !d.WrittenSince(gen, 4*g, g+1) {
		t.Fatal("a range past the watermark reads as unwritten")
	}
	if d.WrittenSince(gen, 0, 0) {
		t.Fatal("an empty range reads as written")
	}

	d.Write(2*g-1, []byte{1, 2}) // straddles granules 1 and 2
	for i, want := range []bool{false, true, true, false, false} {
		if got := d.WrittenSince(gen, int64(i)*g, g); got != want {
			t.Fatalf("granule %d written = %v, want %v", i, got, want)
		}
	}
	if gen2, _ := d.WriteClock(); gen2 <= gen || d.WrittenSince(gen2, g, 2*g) {
		t.Fatalf("generation %d -> %d: the write is not older than the new generation", gen, gen2)
	}

	off, err := d.Alloc(3 * g)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ = d.WriteClock()
	if d.WrittenSince(gen, off, 3*g) {
		t.Fatal("bytes allocated after TrackWrites are not tracked")
	}
	Copy(d, off+g, d, 0, 1)
	if !d.WrittenSince(gen, off, 2*g) || d.WrittenSince(gen, off+2*g, g) {
		t.Fatal("a copy into the grown range is not marked at its own granule")
	}
}

// TestWriteClockCountsBytes: the byte count moves only with tracking on,
// by exactly what each mutator stores — a rewrite counts again — and
// only on the destination of a copy.
func TestWriteClockCountsBytes(t *testing.T) {
	for _, mat := range []bool{true, false} {
		d := New("gpu", GPU, 1<<20, mat)
		src := New("src", DRAM, 1<<20, mat)
		if _, err := d.Alloc(1 << 20); err != nil {
			t.Fatal(err)
		}
		write := func(off, n int64) {
			if mat {
				d.Write(off, make([]byte, n))
			} else {
				d.WriteStamp(off, n, uint64(off+n))
			}
		}
		write(0, 100) // tracking is off
		d.TrackWrites()
		gen0, b0 := d.WriteClock()
		if b0 != 0 {
			t.Fatalf("materialized=%v: %d bytes counted before tracking began", mat, b0)
		}
		write(10, 100)
		write(10, 100)
		Copy(d, 4096, src, 0, 5000)
		Copy(src, 0, d, 0, 7000) // d is only read
		if mat {
			CopyCRC(d, 1<<18, src, 0, 300<<10, 0)
			CopyCRC(nil, 0, d, 0, 1000, 0)
		} else {
			d.WriteStampBatch([]StampRegion{{Off: 8192, N: 10, Stamp: 1}, {Off: 9000, N: 300<<10 - 10, Stamp: 2}})
		}
		gen, b := d.WriteClock()
		if want := int64(200 + 5000 + 300<<10); b != want || gen <= gen0 {
			t.Fatalf("materialized=%v: write clock (%d, %d B) after (%d, 0), want %d B and a later generation",
				mat, gen, b, gen0, want)
		}
	}
}
