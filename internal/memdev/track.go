package memdev

// Write tracking: a device can remember, per TrackGranule of its
// allocated bytes, when each granule was last written, so a reader that
// keeps something derived from the device's contents (a delta client's
// block digests) can redo only the part a write touched since its last
// look. The clock is a generation counter that every marked write
// advances and nothing resets. Tracking is off until TrackWrites: a
// device nobody asks pays one boolean test per write and holds no
// table.
//
// Every mutator marks the granules it writes while it holds the lock it
// writes under (Write and so StreamFrom, Copy and CopyCRC on the
// destination, WriteStamp, WriteStampBatch), so a reader that takes
// the generation (WriteClock) before it reads the contents sees every
// later write as newer than that generation. Marking is conservative: a
// granule any byte of a write lands in counts as written.

// TrackGranule is the write tracker's resolution in bytes: the delta
// client's usual block size, so a sparse update rehashes about the
// blocks it wrote, while the table stays at 8 bytes per 64 KiB of the
// multi-GiB simulated GPUs.
const TrackGranule = 64 << 10

// TrackWrites turns write tracking on; later calls do nothing. The
// table covers the bytes allocated so far and grows with Alloc; writes
// beyond the allocation watermark are not recorded, and WrittenSince
// reports such a range as written.
func (d *Device) TrackWrites() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.tracking {
		return
	}
	d.tracking = true
	d.growTrackerLocked()
}

// growTrackerLocked extends the table to the allocation watermark. The
// new granules count as written now: whatever a reader derived from them
// before tracking covered them is not to be trusted.
func (d *Device) growTrackerLocked() {
	need := int((d.brk + TrackGranule - 1) / TrackGranule)
	if !d.tracking || len(d.written) >= need {
		return
	}
	d.gen++
	for len(d.written) < need {
		d.written = append(d.written, d.gen)
	}
}

// markLocked records a write into [off, off+n).
func (d *Device) markLocked(off, n int64) {
	if !d.tracking || n <= 0 {
		return
	}
	d.gen++
	d.wrote += n
	hi := min(int((off+n-1)/TrackGranule)+1, len(d.written))
	for g := int(off / TrackGranule); g < hi; g++ {
		d.written[g] = d.gen
	}
}

// WriteClock returns the write generation — every write marked after
// this call is newer than it — and, read under the same lock, how many
// bytes marked writes have stored since tracking began (a byte written
// twice counts twice). A reader that knows how many bytes one writer was
// to store between two readings can tell whether anything else wrote.
func (d *Device) WriteClock() (gen uint64, bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen, d.wrote
}

// WrittenSince reports whether a write newer than generation gen may
// have touched [off, off+n). It answers true whenever it cannot tell:
// tracking is off, or the range reaches past the tracked bytes.
func (d *Device) WrittenSince(gen uint64, off, n int64) bool {
	d.check(off, n)
	if n == 0 {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	hi := int((off+n-1)/TrackGranule) + 1
	if !d.tracking || hi > len(d.written) {
		return true
	}
	for _, g := range d.written[off/TrackGranule : hi] {
		if g > gen {
			return true
		}
	}
	return false
}
