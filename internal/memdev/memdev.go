// Package memdev provides simulated byte-addressable device memory: the
// state substrate behind the GPU, client DRAM, and persistent-memory
// devices. A device holds either materialized bytes (real data, used by
// correctness tests and the TCP-backed runtime) or virtual content
// stamps (64-bit content fingerprints tracked per region, used by
// large-model benchmarks where allocating tens of gigabytes would be
// wasteful). Stamps propagate through every copy, so end-to-end transfer
// correctness is checkable in both modes.
//
// Devices carry no timing; the datapath layers (rdma, fsim) charge
// modeled costs. All methods are safe for concurrent use.
package memdev

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind labels what a device models.
type Kind int

// Device kinds.
const (
	DRAM Kind = iota + 1
	GPU
	PMEM
	NVMe
)

// String returns the conventional name of the device kind.
func (k Kind) String() string {
	switch k {
	case DRAM:
		return "dram"
	case GPU:
		return "gpu"
	case PMEM:
		return "pmem"
	case NVMe:
		return "nvme"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Device is one simulated memory device.
type Device struct {
	name         string
	kind         Kind
	size         int64
	materialized bool

	// id orders the two device locks a materialized Copy nests.
	id uint64

	mu     sync.Mutex
	data   []byte       // materialized mode
	stamps []stampEntry // virtual mode: disjoint stamped regions
	brk    int64        // bump-allocation watermark
}

// stampEntry records that region [off, off+n) holds bytes [srcOff,
// srcOff+n) of a parent content blob of total length srcLen whose
// fingerprint is stamp. A complete entry (srcOff == 0 && srcLen == n)
// holds the whole content; fragments arise when chunked transfers copy
// sub-ranges of a stamped region. Adjacent fragments of the same parent
// coalesce on write, so a chunk-by-chunk copy of a full region
// reassembles into a complete entry on the destination.
type stampEntry struct {
	off, n int64
	stamp  uint64
	srcOff int64
	srcLen int64
}

// complete reports whether the entry holds its parent content in full.
func (e stampEntry) complete() bool { return e.srcOff == 0 && e.srcLen == e.n }

// New creates a device of the given byte size. When materialized is true
// the device allocates real backing bytes; otherwise it tracks content
// stamps only.
func New(name string, kind Kind, size int64, materialized bool) *Device {
	d := &Device{name: name, kind: kind, size: size, materialized: materialized, id: lastID.Add(1)}
	if materialized {
		d.data = make([]byte, size)
	}
	return d
}

// lastID numbers devices in creation order.
var lastID atomic.Uint64

// Name returns the device's name.
func (d *Device) Name() string { return d.name }

// Kind returns what the device models.
func (d *Device) Kind() Kind { return d.kind }

// Size returns the device's capacity in bytes.
func (d *Device) Size() int64 { return d.size }

// Materialized reports whether the device holds real bytes.
func (d *Device) Materialized() bool { return d.materialized }

// Alloc reserves n bytes with a simple bump allocator and returns the
// region's base offset. It is sufficient for GPU tensor placement; the
// PMem daemon uses the richer alloc package instead.
func (d *Device) Alloc(n int64) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.brk+n > d.size {
		return 0, fmt.Errorf("memdev: %s: out of memory (%d requested, %d free)", d.name, n, d.size-d.brk)
	}
	off := d.brk
	d.brk += n
	return off, nil
}

// Allocated reports the bump-allocation watermark.
func (d *Device) Allocated() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.brk
}

func (d *Device) check(off, n int64) {
	if off < 0 || n < 0 || off+n > d.size {
		panic(fmt.Sprintf("memdev: %s: access [%d,%d) outside device of size %d", d.name, off, off+n, d.size))
	}
}

// Write stores p at off. The device must be materialized.
func (d *Device) Write(off int64, p []byte) {
	d.check(off, int64(len(p)))
	if !d.materialized {
		panic("memdev: Write on virtual device; use WriteStamp")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	copy(d.data[off:], p)
}

// Read fills p from off. The device must be materialized.
func (d *Device) Read(off int64, p []byte) {
	d.check(off, int64(len(p)))
	if !d.materialized {
		panic("memdev: Read on virtual device; use StampOf")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	copy(p, d.data[off:off+int64(len(p))])
}

// Bytes returns a copy of the region [off, off+n). The device must be
// materialized.
func (d *Device) Bytes(off, n int64) []byte {
	p := make([]byte, n)
	d.Read(off, p)
	return p
}

// streamPiece bounds the bounce buffer StreamTo and StreamFrom move a
// region through: large enough that the per-piece lock and call overhead
// vanishes, small enough that a kept buffer per in-flight verb is noise.
const streamPiece = 256 << 10

// bounce is the free list of stream buffers, shared by every P: the
// buffer one stream puts back is the one the next takes, wherever either
// goroutine runs. (A sync.Pool parks a returned buffer in its P's private
// slot, which no other P can take, so a verb whose goroutine moved P
// allocated a fresh buffer.) Past bounceKeep, a returned buffer is left
// to the collector.
var bounce = make(chan *[streamPiece]byte, bounceKeep)

const bounceKeep = 16

// getBounce takes a buffer off the free list. When the list is empty it
// allocates two and lists the second: a verb between two fabrics of one
// process streams at both ends at once, and whether the first verb's two
// streams overlapped is up to the scheduler, so a single allocation could
// leave the steady state one buffer short until some later verb.
func getBounce() *[streamPiece]byte {
	select {
	case b := <-bounce:
		return b
	default:
		putBounce(new([streamPiece]byte))
		return new([streamPiece]byte)
	}
}

func putBounce(b *[streamPiece]byte) {
	select {
	case bounce <- b:
	default:
	}
}

// StreamTo writes region [off, off+n) to w without materializing it: the
// region crosses a pooled bounce buffer one piece at a time. The device
// lock is the happens-before edge between this reader and concurrent
// writers of the device, and it is held for each piece's memcpy only —
// never across w.Write, which may be a socket that stalls for as long as
// the peer likes while other lanes and tenants use the same device.
// (Handing w an alias of d.data would save the memcpy but has no such
// edge: a TCP socket orders nothing.) The device must be materialized.
func (d *Device) StreamTo(w io.Writer, off, n int64) error {
	d.check(off, n)
	if !d.materialized {
		panic("memdev: StreamTo on virtual device; use StampOf")
	}
	buf := getBounce()
	defer putBounce(buf)
	for n > 0 {
		p := buf[:min(n, streamPiece)]
		d.Read(off, p)
		if _, err := w.Write(p); err != nil {
			return err
		}
		off += int64(len(p))
		n -= int64(len(p))
	}
	return nil
}

// StreamFrom fills region [off, off+n) from r, the inverse of StreamTo
// under the same lock rule: r is read, unlocked, until a piece of the
// bounce buffer is full, and the piece lands under the device lock. On
// error the region holds the bytes that arrived before it. The device
// must be materialized.
func (d *Device) StreamFrom(r io.Reader, off, n int64) error {
	d.check(off, n)
	if !d.materialized {
		panic("memdev: StreamFrom on virtual device; use WriteStamp")
	}
	buf := getBounce()
	defer putBounce(buf)
	for n > 0 {
		p := buf[:min(n, streamPiece)]
		got, err := io.ReadFull(r, p)
		d.Write(off, p[:got])
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		off += int64(got)
		n -= int64(got)
	}
	return nil
}

// HashTo feeds region [off, off+n) to h in place — no copy of the region
// is made; the device lock is held while h runs over it. The device must
// be materialized.
func (d *Device) HashTo(h hash.Hash, off, n int64) {
	d.check(off, n)
	if !d.materialized {
		panic("memdev: HashTo on virtual device; use Fingerprint")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	h.Write(d.data[off : off+n])
}

// WriteStamp records that region [off, off+n) now holds content with the
// given fingerprint. Valid in both modes; on a materialized device it is
// ignored (the bytes are the truth).
func (d *Device) WriteStamp(off, n int64, stamp uint64) {
	d.check(off, n)
	if d.materialized {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.setStampLocked(off, n, stamp)
}

func (d *Device) setStampLocked(off, n int64, stamp uint64) {
	d.insertLocked(stampEntry{off: off, n: n, stamp: stamp, srcOff: 0, srcLen: n})
}

// WriteStampBatch records many scattered complete regions in one pass —
// the sparse-optimizer write shape, where a training iteration dirties
// thousands of blocks across the device. Regions must be ascending and
// non-overlapping. Equivalent to calling WriteStamp per region, but one
// merge walk over the entry list instead of a splice per write. Ignored
// on a materialized device, like WriteStamp.
func (d *Device) WriteStampBatch(regions []StampRegion) {
	if d.materialized || len(regions) == 0 {
		return
	}
	for i, r := range regions {
		d.check(r.Off, r.N)
		if i > 0 && r.Off < regions[i-1].Off+regions[i-1].N {
			panic("memdev: WriteStampBatch regions not ascending and disjoint")
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]stampEntry, 0, len(d.stamps)+2*len(regions))
	si := 0
	for _, r := range regions {
		end := r.Off + r.N
		// Keep entries entirely before this write.
		for si < len(d.stamps) && d.stamps[si].off+d.stamps[si].n <= r.Off {
			out = append(out, d.stamps[si])
			si++
		}
		// Clip the straddler's left remainder.
		if si < len(d.stamps) && d.stamps[si].off < r.Off {
			left := d.stamps[si]
			left.n = r.Off - left.off
			out = append(out, left)
		}
		out = append(out, stampEntry{off: r.Off, n: r.N, stamp: r.Stamp, srcOff: 0, srcLen: r.N})
		// Drop entries the write covers; clip the right straddler in
		// place so the next write (or the tail copy) sees the remainder.
		for si < len(d.stamps) && d.stamps[si].off+d.stamps[si].n <= end {
			si++
		}
		if si < len(d.stamps) && d.stamps[si].off < end {
			cut := end - d.stamps[si].off
			d.stamps[si].off += cut
			d.stamps[si].srcOff += cut
			d.stamps[si].n -= cut
		}
	}
	out = append(out, d.stamps[si:]...)
	d.stamps = coalesce(out)
}

// searchLocked returns the index of the first entry whose region ends
// after off. Entries are disjoint and sorted by offset, so their end
// offsets are sorted too and the slice is binary-searchable.
func (d *Device) searchLocked(off int64) int {
	return sort.Search(len(d.stamps), func(i int) bool {
		return d.stamps[i].off+d.stamps[i].n > off
	})
}

// insertLocked replaces any entries overlapping e's region with e, then
// coalesces adjacent fragments carrying contiguous pieces of the same
// parent content back into larger fragments (and, eventually, complete
// entries). Entries only partially overlapped by e are clipped, not
// dropped: their surviving ranges stay behind as fragments of the same
// parent, so punching a small write into a large stamped region (a
// sparse optimizer step dirtying one block of a tensor) keeps the rest
// of the region's content identity intact. Delta checkpointing depends
// on this — the clean blocks around a dirty one must fingerprint the
// same before and after a PMem round trip.
func (d *Device) insertLocked(e stampEntry) {
	d.spliceLocked(e.off, e.n, []stampEntry{e})
}

// spliceLocked replaces the window [off, off+n) with run — disjoint
// entries, ascending, tiling the window exactly — clipping the partially
// overlapped boundary entries and re-coalescing only around the splice.
// The entry list is kept sorted and maximally coalesced, so the work is
// O(log n) search + O(overlap) rebuild + a memmove when the list length
// changes; a same-shape overwrite (the steady state of checkpointing
// into a fixed slot) moves nothing.
func (d *Device) spliceLocked(off, n int64, run []stampEntry) {
	end := off + n
	s := d.stamps
	lo := d.searchLocked(off)
	hi := lo
	for hi < len(s) && s[hi].off < end {
		hi++
	}
	// Window to rebuild: one kept neighbor on each side participates in
	// coalescing with the new run.
	wlo, whi := lo, hi
	if wlo > 0 {
		wlo--
	}
	if whi < len(s) {
		whi++
	}
	repl := make([]stampEntry, 0, (lo-wlo)+len(run)+2+(whi-hi))
	repl = append(repl, s[wlo:lo]...)
	if lo < hi && s[lo].off < off { // left remainder survives
		left := s[lo]
		left.n = off - left.off
		repl = append(repl, left)
	}
	repl = append(repl, run...)
	if lo < hi && s[hi-1].off+s[hi-1].n > end { // right remainder survives
		cut := end - s[hi-1].off
		right := s[hi-1]
		right.off += cut
		right.srcOff += cut
		right.n -= cut
		repl = append(repl, right)
	}
	repl = append(repl, s[hi:whi]...)
	d.stamps = spliceEntries(s, wlo, whi, coalesce(repl))
}

// coalesce merges adjacent fragments of the same parent content in a
// sorted run, in place.
func coalesce(run []stampEntry) []stampEntry {
	merged := run[:0]
	for _, o := range run {
		if len(merged) > 0 {
			p := &merged[len(merged)-1]
			if p.off+p.n == o.off && p.stamp == o.stamp &&
				p.srcLen == o.srcLen && p.srcOff+p.n == o.srcOff {
				p.n += o.n
				continue
			}
		}
		merged = append(merged, o)
	}
	return merged
}

// spliceEntries replaces s[lo:hi] with repl, moving the tail only when
// the length changes.
func spliceEntries(s []stampEntry, lo, hi int, repl []stampEntry) []stampEntry {
	delta := len(repl) - (hi - lo)
	switch {
	case delta == 0:
		copy(s[lo:hi], repl)
		return s
	case delta < 0:
		copy(s[lo:], repl)
		copy(s[lo+len(repl):], s[hi:])
		return s[:len(s)+delta]
	default:
		old := len(s)
		s = append(s, make([]stampEntry, delta)...)
		copy(s[hi+delta:], s[hi:old])
		copy(s[lo:], repl)
		return s
	}
}

// fragmentLocked finds the entry wholly containing [off, off+n) and
// returns it as a fragment positioned at that sub-range.
func (d *Device) fragmentLocked(off, n int64) (stampEntry, bool) {
	if i := d.searchLocked(off); i < len(d.stamps) {
		e := d.stamps[i]
		if e.off <= off && off+n <= e.off+e.n {
			return stampEntry{
				off:    off,
				n:      n,
				stamp:  e.stamp,
				srcOff: e.srcOff + (off - e.off),
				srcLen: e.srcLen,
			}, true
		}
	}
	return stampEntry{}, false
}

// fragmentsLocked returns the entries covering [off, off+n) clipped to
// that window, ascending, with uncovered gaps filled by unknown
// (stamp 0) entries so the result tiles the window exactly. Offsets are
// in this device's coordinates; callers re-base them.
func (d *Device) fragmentsLocked(off, n int64) []stampEntry {
	cur, end := off, off+n
	var out []stampEntry
	for i := d.searchLocked(off); i < len(d.stamps); i++ { // sorted by offset
		e := d.stamps[i]
		if e.off >= end {
			break
		}
		c0, c1 := e.off, e.off+e.n
		if c0 < cur {
			c0 = cur
		}
		if c1 > end {
			c1 = end
		}
		if c0 > cur {
			out = append(out, stampEntry{off: cur, n: c0 - cur, srcLen: c0 - cur})
		}
		out = append(out, stampEntry{
			off:    c0,
			n:      c1 - c0,
			stamp:  e.stamp,
			srcOff: e.srcOff + (c0 - e.off),
			srcLen: e.srcLen,
		})
		cur = c1
	}
	if cur < end {
		out = append(out, stampEntry{off: cur, n: end - cur, srcLen: end - cur})
	}
	return out
}

// StampOf returns the content fingerprint of region [off, off+n). On a
// materialized device it hashes the bytes; on a virtual device it returns
// the recorded stamp, or 0 if the region was never written or does not
// exactly match a stamped region.
func (d *Device) StampOf(off, n int64) uint64 {
	d.check(off, n)
	if d.materialized {
		h := fnv.New64a()
		d.HashTo(h, off, n)
		return h.Sum64()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if i := d.searchLocked(off); i < len(d.stamps) {
		if e := d.stamps[i]; e.off == off && e.n == n && e.complete() {
			return e.stamp
		}
	}
	return 0
}

// Fingerprint returns a content fingerprint of region [off, off+n) that
// is defined in both modes, including fragmented virtual regions where
// StampOf gives up with 0. On a materialized device it hashes the bytes
// in place under the device lock with two hardware CRCs of different
// generators — CRC-32C in the high word, CRC-32 (IEEE) in the low — so
// the digest keeps 64 bits of discrimination at CRC speed; it is not
// StampOf's hash. On a virtual device a region exactly covered by one
// complete entry returns that entry's raw stamp — identical to StampOf,
// so whole-region virtual fingerprints stay comparable across both APIs —
// while any other coverage hashes the covering fragment run
// (relative offset, length, stamp, and parent position of each piece,
// gaps included as stamp-0 pieces), so changing any piece's content
// changes the fingerprint. Copies preserve fragment identity, which
// makes Fingerprint stable across chunked transfers and slot-to-slot
// copy-forwards of the same content.
func (d *Device) Fingerprint(off, n int64) uint64 {
	d.check(off, n)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.materialized {
		b := d.data[off : off+n]
		return uint64(crc32.Checksum(b, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(b))
	}
	if i := d.searchLocked(off); i < len(d.stamps) {
		if e := d.stamps[i]; e.off == off && e.n == n && e.complete() {
			return e.stamp
		}
	}
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, f := range d.fragmentsLocked(off, n) {
		put(uint64(f.off - off))
		put(uint64(f.n))
		put(f.stamp)
		put(uint64(f.srcOff))
		put(uint64(f.srcLen))
	}
	return h.Sum64()
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Copy moves n bytes from src[srcOff] to dst[dstOff]. Both devices must
// be in the same mode; in materialized mode real bytes are copied, in
// virtual mode the content stamp propagates — including sub-range
// copies of a stamped region, which land as fragments and coalesce back
// into the full region once every chunk has arrived. This is what lets
// chunked datapath transfers and ranged flushes preserve content
// identity on virtual buffers.
func Copy(dst *Device, dstOff int64, src *Device, srcOff, n int64) {
	if dst.materialized != src.materialized {
		panic(fmt.Sprintf("memdev: mixed-mode copy %s -> %s", src.name, dst.name))
	}
	src.check(srcOff, n)
	dst.check(dstOff, n)
	if n == 0 {
		return
	}
	if dst.materialized {
		// One memmove between the backing slices, under both locks taken
		// in creation order so that concurrent A→B and B→A copies cannot
		// deadlock (a self-copy takes its one lock once).
		first, second := src, dst
		if second.id < first.id {
			first, second = second, first
		}
		first.mu.Lock()
		if second != first {
			second.mu.Lock()
			defer second.mu.Unlock()
		}
		defer first.mu.Unlock()
		copy(dst.data[dstOff:dstOff+n], src.data[srcOff:srcOff+n])
		return
	}
	// Collect the covering fragments under the source lock, then splice
	// them into the destination in one pass (they tile [dstOff,
	// dstOff+n) exactly). The locks are held sequentially, never nested,
	// so a self-copy (slot-to-slot copy-forward within one device)
	// cannot deadlock.
	src.mu.Lock()
	frags := src.fragmentsLocked(srcOff, n)
	src.mu.Unlock()
	for i := range frags {
		frags[i].off += dstOff - srcOff
	}
	dst.mu.Lock()
	dst.spliceLocked(dstOff, n, frags)
	dst.mu.Unlock()
}

// StampRegion describes one stamped region of a virtual device.
type StampRegion struct {
	Off, N int64
	Stamp  uint64
}

// Stamps returns the stamped regions of a virtual device, in no
// particular order. Incomplete fragments (a chunked write interrupted
// mid-region, e.g. by a crash between chunk flushes) are omitted: their
// content is partial and must read back as unknown after an image
// round-trip. On a materialized device it returns nil.
func (d *Device) Stamps() []StampRegion {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.materialized {
		return nil
	}
	out := make([]StampRegion, 0, len(d.stamps))
	for _, e := range d.stamps {
		if e.complete() {
			out = append(out, StampRegion{Off: e.off, N: e.n, Stamp: e.stamp})
		}
	}
	return out
}
