package memdev

import (
	"bytes"
	"hash/crc32"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"
)

// filled returns a materialized device holding seeded pseudo-random
// bytes.
func filled(name string, size int64, seed int64) *Device {
	d := New(name, PMEM, size, true)
	p := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(p)
	d.Write(0, p)
	return d
}

// TestStreamRoundTrip: a region streamed out of one device and into
// another arrives byte-identical, for sizes below, at and across the
// bounce-buffer piece.
func TestStreamRoundTrip(t *testing.T) {
	src := filled("src", 3*streamPiece, 1)
	for _, n := range []int64{0, 1, 4096, streamPiece - 1, streamPiece, streamPiece + 1, 2*streamPiece + 77} {
		dst := New("dst", PMEM, 3*streamPiece, true)
		var wire bytes.Buffer
		if err := src.StreamTo(&wire, 5, n); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire.Bytes(), src.Bytes(5, n)) {
			t.Fatalf("StreamTo of %d bytes wrote different bytes", n)
		}
		// A reader that returns short has to work too.
		if err := dst.StreamFrom(iotest.HalfReader(&wire), 9, n); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst.Bytes(9, n), src.Bytes(5, n)) {
			t.Fatalf("StreamFrom of %d bytes landed different bytes", n)
		}
		if got := dst.Bytes(9+n, 16); !bytes.Equal(got, make([]byte, 16)) {
			t.Fatalf("StreamFrom of %d bytes wrote past the region", n)
		}
	}
}

// TestStreamFromShortReader: a reader that ends early is an error, and
// the region keeps exactly the bytes that arrived.
func TestStreamFromShortReader(t *testing.T) {
	d := New("d", PMEM, 1024, true)
	err := d.StreamFrom(bytes.NewReader([]byte("abc")), 10, 100)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := d.Bytes(10, 4); !bytes.Equal(got, []byte{'a', 'b', 'c', 0}) {
		t.Fatalf("region after short read = %q", got)
	}
}

// stallReader yields its prefix, then blocks until released.
type stallReader struct {
	prefix  io.Reader
	stalled chan struct{} // closed when the prefix is spent
	release chan struct{}
	once    sync.Once
}

func (r *stallReader) Read(p []byte) (int, error) {
	if n, err := r.prefix.Read(p); n > 0 || err != io.EOF {
		return n, err
	}
	r.once.Do(func() { close(r.stalled) })
	<-r.release
	return 0, io.EOF
}

// TestStreamHoldsNoLockAcrossIO is the lock rule: while one stream into
// a device is parked inside its reader (a socket whose peer went quiet),
// every other use of the device proceeds.
func TestStreamHoldsNoLockAcrossIO(t *testing.T) {
	d := New("zone", PMEM, 1<<20, true)
	r := &stallReader{prefix: bytes.NewReader(make([]byte, 1000)), stalled: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- d.StreamFrom(r, 0, 4096) }()
	<-r.stalled

	other := make(chan struct{})
	go func() {
		defer close(other)
		d.Write(8192, []byte("another lane"))
		_ = d.Bytes(8192, 12)
		Copy(d, 16384, d, 8192, 12)
		_ = d.StreamTo(io.Discard, 8192, 12)
	}()
	select {
	case <-other:
	case <-time.After(10 * time.Second):
		t.Fatal("device unusable while a stream is blocked in its reader: the device lock is held across I/O")
	}
	close(r.release)
	if err := <-done; err != io.ErrUnexpectedEOF {
		t.Fatalf("stalled stream ended with %v", err)
	}
}

// TestHashToMatchesBytes: hashing in place sees the same bytes a copy
// would.
func TestHashToMatchesBytes(t *testing.T) {
	d := filled("d", 1<<20, 2)
	table := crc32.MakeTable(crc32.Castagnoli)
	h := crc32.New(table)
	d.HashTo(h, 100, 1<<19)
	d.HashTo(h, 1<<19, 1000)
	want := crc32.Update(crc32.Checksum(d.Bytes(100, 1<<19), table), table, d.Bytes(1<<19, 1000))
	if h.Sum32() != want {
		t.Fatalf("in-place hash %08x, want %08x", h.Sum32(), want)
	}
}

// TestMaterializedCopyAllocatesNothing: the copy is one memmove between
// the backing slices.
func TestMaterializedCopyAllocatesNothing(t *testing.T) {
	a, b := filled("a", 1<<20, 3), New("b", PMEM, 1<<20, true)
	if n := testing.AllocsPerRun(20, func() {
		Copy(b, 0, a, 0, 1<<20)
		Copy(a, 0, a, 1<<19, 1<<19)
	}); n != 0 {
		t.Fatalf("materialized Copy allocates %v objects per run", n)
	}
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	if n := testing.AllocsPerRun(20, func() { a.HashTo(h, 0, 1<<20) }); n != 0 {
		t.Fatalf("HashTo allocates %v objects per run", n)
	}
}

// TestOpposingCopiesFinish: A→B and B→A at once nest the two device
// locks in opposite argument order; a fixed lock order lets both finish.
func TestOpposingCopiesFinish(t *testing.T) {
	a, b := filled("a", 1<<16, 4), filled("b", 1<<16, 5)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for _, dir := range [][2]*Device{{a, b}, {b, a}} {
			dir := dir
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					Copy(dir[0], 0, dir[1], 1<<15, 1<<15)
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("opposing copies deadlocked")
	}
}

// Property: a self-copy, overlapping or not, equals memmove — which is
// what the old read-everything-then-write path computed.
func TestSelfCopyIsMemmoveProperty(t *testing.T) {
	prop := func(data []byte, a, b, c uint16) bool {
		size := int64(len(data))
		if size == 0 {
			return true
		}
		n := int64(c) % (size + 1)
		srcOff, dstOff := int64(a)%(size-n+1), int64(b)%(size-n+1)
		d := New("d", DRAM, size, true)
		d.Write(0, data)
		want := append([]byte(nil), data...)
		copy(want[dstOff:], append([]byte(nil), data[srcOff:srcOff+n]...))
		Copy(d, dstOff, d, srcOff, n)
		return bytes.Equal(d.Bytes(0, size), want)
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintSeesEveryBitProperty: flipping any one bit of a 64 KiB
// block changes its materialized Fingerprint, which is the CRC-32C /
// CRC-32 pair over the block's bytes.
func TestFingerprintSeesEveryBitProperty(t *testing.T) {
	const block = 64 << 10
	d := filled("d", block, 3)
	orig := d.Fingerprint(0, block)
	b := d.Bytes(0, block)
	if want := uint64(crc32.Checksum(b, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(b)); orig != want {
		t.Fatalf("Fingerprint = %016x, want the CRC pair %016x", orig, want)
	}
	flip := func(bit uint32) bool {
		at, mask := int64(bit/8%block), byte(1)<<(bit%8)
		p := d.Bytes(at, 1)
		d.Write(at, []byte{p[0] ^ mask})
		changed := d.Fingerprint(0, block) != orig
		d.Write(at, p)
		return changed
	}
	if err := quick.Check(flip, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
