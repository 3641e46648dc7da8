package packet

import "testing"

// BenchmarkDH5 assembles a full 339-byte DH5 packet to air bits and
// parses it back, the per-transmission work of a saturated ACL link.
func BenchmarkDH5(b *testing.B) {
	p := mkData(TypeDH5, 339, 1)
	air := p.Assemble(testUAP, testCLK)
	b.Run("assemble", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			air = p.Assemble(testUAP, testCLK)
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := Parse(air, testLAP, testUAP, testCLK, 7); err != nil {
				b.Fatal(err)
			}
		}
	})
}
