package memdev

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// checkCombine fails unless both forms of Combine join the CRCs of
// b[:k] and b[k:] into the CRC of b.
func checkCombine(t *testing.T, b []byte, k int) {
	t.Helper()
	want := crc32.Checksum(b, castagnoli)
	a, c := crc32.Checksum(b[:k], castagnoli), crc32.Checksum(b[k:], castagnoli)
	n := int64(len(b) - k)
	if got := Combine(a, c, n); got != want {
		t.Fatalf("Combine at split %d of %d bytes = %08x, want %08x", k, len(b), got, want)
	}
	if got := combineBits(a, c, n); got != want {
		t.Fatalf("combineBits at split %d of %d bytes = %08x, want %08x", k, len(b), got, want)
	}
}

// TestCombineMatchesChecksum: for random buffers up to 300 KB split
// anywhere — empty halves included — the CRC-32C joined from the halves
// is the CRC-32C of the whole, in the table form and bit by bit.
func TestCombineMatchesChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	buf := make([]byte, 300_000)
	rng.Read(buf)
	for i := 0; i < 200; i++ {
		b := buf[:rng.Intn(len(buf)+1)]
		k := rng.Intn(len(b) + 1)
		switch i % 10 {
		case 0:
			k = 0
		case 1:
			k = len(b)
		}
		checkCombine(t, b, k)
	}
	checkCombine(t, nil, 0)
}

// TestCombineManyPieces: joining a run of unequal pieces front to back
// gives the CRC-32C of their concatenation, as a stamp is joined.
func TestCombineManyPieces(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := make([]byte, 1<<20)
	rng.Read(b)
	var crc uint32
	for off := 0; off < len(b); {
		n := min(rng.Intn(40_000), len(b)-off)
		crc = Combine(crc, crc32.Checksum(b[off:off+n], castagnoli), int64(n))
		off += n
	}
	if want := crc32.Checksum(b, castagnoli); crc != want {
		t.Fatalf("pieces join to %08x, whole buffer hashes to %08x", crc, want)
	}
}

// TestCombineAnyLength: lengths with any set of bits, up to the largest
// int64, give the bit-by-bit product, so every power-of-two table is
// right.
func TestCombineAnyLength(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		n := rng.Int63() >> rng.Intn(63)
		if i < 63 {
			n = 1 << i
		}
		a, b := rng.Uint32(), rng.Uint32()
		if got, want := Combine(a, b, n), combineBits(a, b, n); got != want {
			t.Fatalf("Combine(%08x, %08x, %d) = %08x, want %08x", a, b, n, got, want)
		}
	}
}

// TestJoinTilesExtents: pieces that tile a run of extents join to the
// CRC-32C of the extents' bytes back to back, in extent order, whatever
// order the pieces come in; a gap, an overlap or a stray piece joins
// nothing.
func TestJoinTilesExtents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := make([]byte, 1000)
	rng.Read(b)
	// Extents in extent order are not in offset order: [600, 1000) then
	// [0, 250) then [250, 600).
	ext := [][2]int64{{600, 400}, {0, 250}, {250, 350}}
	extent := func(i int) (int64, int64) { return ext[i][0], ext[i][1] }
	var want []byte
	for _, e := range ext {
		want = append(want, b[e[0]:e[0]+e[1]]...)
	}
	piece := func(off, n int64) Piece { return Piece{off, n, crc32.Checksum(b[off:off+n], castagnoli)} }
	tiles := []Piece{piece(0, 100), piece(100, 150), piece(250, 350), piece(600, 1), piece(601, 399)}
	for i := 0; i < 10; i++ {
		p := append([]Piece(nil), tiles...)
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		if got, ok := Join(p, len(ext), extent); !ok || got != crc32.Checksum(want, castagnoli) {
			t.Fatalf("shuffled tiles join to %08x, %v; want %08x", got, ok, crc32.Checksum(want, castagnoli))
		}
	}
	for name, p := range map[string][]Piece{
		"gap":             tiles[1:],
		"overlap":         append([]Piece{piece(50, 100)}, tiles...),
		"duplicate":       append([]Piece{tiles[2]}, tiles...),
		"across extents":  {piece(0, 200), piece(200, 100), piece(300, 300), piece(600, 400)},
		"outside extents": append([]Piece{{Off: 1000, N: 5}}, tiles...),
	} {
		if _, ok := Join(p, len(ext), extent); ok {
			t.Fatalf("%s: joined", name)
		}
	}
}

// FuzzCombine: any buffer, split anywhere, joins back to its CRC-32C.
// Without -fuzz it runs the seed corpus below as a plain test.
func FuzzCombine(f *testing.F) {
	f.Add([]byte{}, uint(0))
	f.Add([]byte("a"), uint(0))
	f.Add([]byte("a"), uint(1))
	f.Add([]byte("123456789"), uint(4))
	f.Add(make([]byte, 4096), uint(1000))
	f.Add([]byte("checkpoint bytes move once"), uint(26))
	f.Fuzz(func(t *testing.T, b []byte, split uint) {
		checkCombine(t, b, int(split%uint(len(b)+1)))
	})
}

// gptTinyLengths is the tensor sizes of a 24-layer GPT with hidden size
// 32 and a 1000-word vocabulary (model.GPT): 292 tensors in 1.5 MiB.
func gptTinyLengths() []int64 {
	const h = 32
	n := []int64{1000 * h * 4, 2048 * h * 4}
	for l := 0; l < 24; l++ {
		n = append(n, h*4, h*4, 3*h*h*4, 3*h*4, h*h*4, h*4, h*4, h*4, 4*h*h*4, 4*h*4, 4*h*h*4, h*4)
	}
	return append(n, h*4, h*4)
}

// BenchmarkStampCombine joins one checkpoint's worth of piece CRCs: a
// full checkpoint of the 292-tensor model above, one piece per tensor,
// the 1 408 64 KiB blocks of an 88 MiB delta checkpoint's digest check,
// and as many lengths drawn at random below 128 MiB, whose ~13 set bits
// each bound what a delta's skip and pull extents cost to join.
func BenchmarkStampCombine(b *testing.B) {
	blocks := make([]int64, 1408)
	random := make([]int64, len(blocks))
	rng := rand.New(rand.NewSource(1))
	for i := range blocks {
		blocks[i] = 64 << 10
		random[i] = 1 + rng.Int63n(128<<20)
	}
	for _, bc := range []struct {
		name string
		lens []int64
	}{
		{"292-tensors", gptTinyLengths()},
		{"1408-blocks", blocks},
		{"1408-random", random},
	} {
		b.Run(bc.name, func(b *testing.B) {
			crcs := make([]uint32, len(bc.lens))
			for i := range crcs {
				crcs[i] = uint32(i) * 0x9e3779b9
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var crc uint32
				for j, n := range bc.lens {
					crc = Combine(crc, crcs[j], n)
				}
				sinkCRC = crc
			}
		})
	}
}

var sinkCRC uint32
