package livenet

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestCRC32Combine checks the combine against direct checksums of the
// concatenation, across chunk-boundary shapes (empty parts, 1-byte
// parts, sizes around word boundaries, lengths at and beside every power
// of two up to 16 MiB, and many-chunk folds).
func TestCRC32Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	buf := make([]byte, 9000)
	rng.Read(buf)
	splits := []int{0, 1, 3, 7, 8, 9, 255, 256, 4096, len(buf)}
	for _, cut := range splits {
		a, b := buf[:cut], buf[cut:]
		got := crc32Combine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), int64(len(b)))
		if want := crc32.ChecksumIEEE(buf); got != want {
			t.Fatalf("combine at split %d = %08x, want %08x", cut, got, want)
		}
	}
	// Fold a long chunk list like a manifest finalize does.
	var acc uint32
	for off := 0; off < len(buf); off += 1234 {
		end := off + 1234
		if end > len(buf) {
			end = len(buf)
		}
		part := buf[off:end]
		acc = crc32Combine(acc, crc32.ChecksumIEEE(part), int64(len(part)))
	}
	if want := crc32.ChecksumIEEE(buf); acc != want {
		t.Fatalf("chunk fold = %08x, want %08x", acc, want)
	}

	// len2 = 2^k and 2^k±1: each set bit of len2 selects one table
	// entry, so these lengths exercise every entry alone and beside its
	// neighbours.
	const head = 13
	big := make([]byte, head+1<<24+1)
	rng.Read(big)
	crcA := crc32.ChecksumIEEE(big[:head])
	for k := 0; k <= 24; k++ {
		for _, n := range []int{1<<k - 1, 1 << k, 1<<k + 1} {
			got := crc32Combine(crcA, crc32.ChecksumIEEE(big[head:head+n]), int64(n))
			if want := crc32.ChecksumIEEE(big[:head+n]); got != want {
				t.Fatalf("combine len2=%d = %08x, want %08x", n, got, want)
			}
		}
	}

	// The launch benchmark's image shape: 48 chunks of 256 KiB, the last
	// one short.
	const chunk = 256 << 10
	img := big[:47*chunk+100<<10]
	acc = 0
	for off := 0; off < len(img); off += chunk {
		part := img[off:min(off+chunk, len(img))]
		acc = crc32Combine(acc, crc32.ChecksumIEEE(part), int64(len(part)))
	}
	if want := crc32.ChecksumIEEE(img); acc != want {
		t.Fatalf("48-chunk fold = %08x, want %08x", acc, want)
	}
}

var crcCombineSink uint32

// BenchmarkCRC32Combine reports the cost of one combine at the default
// 256 KiB chunk length: the per-chunk price of every whole-image digest
// fold on the MM and NMs.
func BenchmarkCRC32Combine(b *testing.B) {
	crc := uint32(0x12345678)
	for i := 0; i < b.N; i++ {
		crc = crc32Combine(crc, uint32(i), 256<<10)
	}
	crcCombineSink = crc
}
