package livenet

// CRC-32 is a linear function over GF(2): the checksum of a
// concatenation A||B can be computed from crc(A), crc(B), and len(B)
// alone, without touching the bytes, by multiplying crc(A) by
// x^(8·len(B)) modulo the CRC polynomial and xoring in crc(B). That lets
// a memory-mode NM verify a spliced image's whole-image digest from the
// per-chunk CRCs it already verified individually, instead of an
// O(image-bytes) read-back pass.
//
// This is zlib's (≥1.2.12) crc32_combine construction for the IEEE
// polynomial. x2nTable holds x^(2^n) mod P for n = 0..31, built once at
// init; x^(8·len) is the product of the entries for the set bits of len,
// so one combine costs O(popcount(len)) multiplications of at most 32
// shift-and-xor steps each. Because x has multiplicative order dividing
// 2^32-1 modulo P, x^(2^32) = x^(2^0) and the table index wraps mod 32.

// ieeeReversedPoly is the reversed (LSB-first) form of the IEEE CRC-32
// polynomial, matching hash/crc32's IEEE table.
const ieeeReversedPoly = 0xedb88320

// x2nTable[n] = x^(2^n) mod P in the bit-reflected representation.
var x2nTable = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	t[0] = p
	for n := 1; n < 32; n++ {
		p = multmodp(p, p)
		t[n] = p
	}
	return t
}()

// multmodp returns a·b mod P for bit-reflected polynomials (bit 31 is
// x^0). The loop is branch-free on the data bits: each step adds b when
// the current bit of a is set, then multiplies b by x.
func multmodp(a, b uint32) uint32 {
	var p uint32
	for ; a != 0; a <<= 1 {
		p ^= b & -(a >> 31)
		b = b>>1 ^ ieeeReversedPoly&-(b&1)
	}
	return p
}

// x2nmodp returns x^(n·2^k) mod P.
func x2nmodp(n int64, k uint) uint32 {
	p := uint32(1) << 31 // x^0
	for ; n != 0; n >>= 1 {
		if n&1 != 0 {
			// p first: while p is still x^0 the multiply is one step.
			p = multmodp(p, x2nTable[k&31])
		}
		k++
	}
	return p
}

// crc32Combine returns crc32.ChecksumIEEE(A||B) given crc1 =
// ChecksumIEEE(A), crc2 = ChecksumIEEE(B), and len2 = len(B).
func crc32Combine(crc1, crc2 uint32, len2 int64) uint32 {
	if len2 <= 0 {
		return crc1
	}
	return multmodp(x2nmodp(len2, 3), crc1) ^ crc2
}
