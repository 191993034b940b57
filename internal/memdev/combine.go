package memdev

import (
	"cmp"
	"hash/crc32"
	"math/bits"
	"slices"
)

// Combine returns the CRC-32C of A‖B from crcA = CRC-32C(A), crcB =
// CRC-32C(B) and nB = len(B), reading no byte of either. CRC-32C is
// linear over GF(2), so crc(A‖B) = crc(A)·x^(8·nB) mod P ⊕ crc(B)
// (zlib's crc32_combine). The multiply by x^(8·nB) is one pass of eight
// nibble lookups per set bit of nB, through tables built at init for
// each power of two, so its cost does not depend on which lengths a
// checkpoint joins; combineBits is the same product taken bit by bit.
// nB must not be negative.
func Combine(crcA, crcB uint32, nB int64) uint32 {
	for n := uint64(nB); n != 0; n &= n - 1 {
		crcA = pow2[bits.TrailingZeros64(n)].apply(crcA)
	}
	return crcA ^ crcB
}

// Piece is the CRC-32C of the N bytes at Off; N > 0.
type Piece struct {
	Off, N int64
	CRC    uint32
}

// Join returns the CRC-32C of count extents' bytes back to back, in
// extent order, from the CRCs of pieces alone — pieces in any order,
// which Join sorts by offset. It returns false unless the pieces tile
// the extents exactly: a gap, an overlap or a piece outside every
// extent leaves nothing to join.
func Join(pieces []Piece, count int, extent func(i int) (off, n int64)) (uint32, bool) {
	slices.SortFunc(pieces, func(a, b Piece) int { return cmp.Compare(a.Off, b.Off) })
	var crc uint32
	used := 0
	for i := 0; i < count; i++ {
		pos, n := extent(i)
		end := pos + n
		j, _ := slices.BinarySearchFunc(pieces, pos, func(p Piece, off int64) int { return cmp.Compare(p.Off, off) })
		for ; pos < end && j < len(pieces) && pieces[j].Off == pos; j, used = j+1, used+1 {
			crc, pos = Combine(crc, pieces[j].CRC, pieces[j].N), pos+pieces[j].N
		}
		if pos != end {
			return 0, false
		}
	}
	return crc, used == len(pieces)
}

// combineBits is Combine with the multiply done bit by bit: the
// reference the table form is tested against.
func combineBits(crcA, crcB uint32, nB int64) uint32 {
	return multmodp(x8n(nB), crcA) ^ crcB
}

// The polynomials below are bit-reflected, as crc32 keeps them: bit 31
// is the coefficient of x^0 and bit 0 that of x^31.

// timesX returns a·x mod P.
func timesX(a uint32) uint32 { return a>>1 ^ a&1*crc32.Castagnoli }

// multmodp returns a·b mod P.
func multmodp(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		b = timesX(b)
	}
	return p
}

// x2n[k] is x^(2^k) mod P, for every k an int64 byte count can reach
// once scaled to bits (x8n starts at k = 3).
var x2n = func() (t [66]uint32) {
	t[0] = 1 << 30 // x^1
	for k := 1; k < len(t); k++ {
		t[k] = multmodp(t[k-1], t[k-1])
	}
	return t
}()

// x8n returns x^(8n) mod P: the shift n appended bytes apply to a CRC.
func x8n(n int64) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; n != 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = multmodp(x2n[k], p)
		}
	}
	return p
}

// shift is multiplication by a fixed polynomial mod P as eight nibble
// tables: t[k][v] is the product for the value v in nibble k of the
// operand.
type shift struct {
	t [8][16]uint32
}

func newShift(m uint32) (s shift) {
	// basis[b] is the product for the operand with only bit b set,
	// x^(31-b): bit 31 (x^0) gives m itself, and each lower bit one more
	// factor of x.
	var basis [32]uint32
	basis[31] = m
	for b := 30; b >= 0; b-- {
		basis[b] = timesX(basis[b+1])
	}
	for k := range s.t {
		for v := 1; v < 16; v++ {
			s.t[k][v] = s.t[k][v&(v-1)] ^ basis[4*k+bits.TrailingZeros(uint(v))]
		}
	}
	return s
}

func (s *shift) apply(a uint32) uint32 {
	return s.t[0][a&15] ^ s.t[1][a>>4&15] ^ s.t[2][a>>8&15] ^ s.t[3][a>>12&15] ^
		s.t[4][a>>16&15] ^ s.t[5][a>>20&15] ^ s.t[6][a>>24&15] ^ s.t[7][a>>28]
}

// pow2[k] multiplies by x^(8·2^k) mod P, the shift 2^k appended bytes
// apply to a CRC, for every bit of a non-negative int64 (~32 KiB).
var pow2 = func() (t [63]shift) {
	for k := range t {
		t[k] = newShift(x2n[k+3])
	}
	return t
}()
