package coding

import (
	"math/rand"
	"testing"
)

// dh5PayloadBits is a full DH5 payload on air before whitening: the
// 16-bit payload header, 339 user bytes and the CRC.
const dh5PayloadBits = 16 + 339*8 + 16

var benchCRC uint16

// BenchmarkFEC13 encodes and decodes a DH5-sized bit string with the
// rate-1/3 repetition code. Each call returns a fresh vector, so the
// steady state is the allocations of that one output.
func BenchmarkFEC13(b *testing.B) {
	in := rndVec(rand.New(rand.NewSource(1)), dh5PayloadBits)
	enc := EncodeFEC13(in)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc = EncodeFEC13(in)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, ok := DecodeFEC13(enc); !ok {
				b.Fatal("decode failed")
			}
		}
	})
}

// BenchmarkCRC16 checksums a DH5-sized payload through the byte table.
func BenchmarkCRC16(b *testing.B) {
	in := rndVec(rand.New(rand.NewSource(2)), dh5PayloadBits)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCRC = CRC16(in, 0x47)
	}
}
