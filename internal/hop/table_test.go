package hop

import (
	"testing"

	"repro/internal/access"
)

// TestPerm5TableMatchesButterfly holds the two-table perm5 (perm5Hi for
// the five pHigh exchanges, then perm5Lo for the nine pLow exchanges)
// to the 14-stage butterfly it replaced, across all 2^19 inputs.
func TestPerm5TableMatchesButterfly(t *testing.T) {
	for ctl := uint32(0); ctl < 1<<14; ctl++ {
		for z := uint32(0); z < 32; z++ {
			got := perm5(z, ctl>>9, ctl&0x1FF)
			if want := perm5Butterfly(z, ctl); got != want {
				t.Fatalf("perm5(z=%d, ctl=%#x) = %d, butterfly = %d", z, ctl, got, want)
			}
		}
	}
}

// refKernel is the selection box written straight from the spec
// (§2.6.2): PERM5 runs as the butterfly under the control word
// P = (Y1·0x1F ⊕ C) at bits 13..9 and D at bits 8..0.
func refKernel(s *Selector, x, y1, a, c, d, f uint32) int {
	z := ((x + a) % 32) ^ s.b
	ctl := ((y1*0x1F)^c)&0x1F<<9 | d&0x1FF
	perm := perm5Butterfly(z, ctl)
	return int((2 * ((perm + s.e + f + 32*y1) % NumChannels)) % NumChannels)
}

// refBasic is the connection-state input mapping of spec §2.6.4.7.
func refBasic(s *Selector, clk uint32) int {
	return refKernel(s, (clk>>2)&0x1F, (clk>>1)&1,
		(s.a1^(clk>>21))&0x1F, (s.c1^(clk>>16))&0x1F, (s.d1^(clk>>7))&0x1FF,
		(16*((clk>>7)&0x1FFFFF))%NumChannels)
}

// refTrain is the page / inquiry / scan / response mapping: address
// inputs un-XORed, F = 0.
func refTrain(s *Selector, x, y1 uint32) int {
	return refKernel(s, x%32, y1, s.a1, s.c1, s.d1, 0)
}

// TestSequencesMatchButterflyKernel runs every hop sequence through the
// table-driven kernel and through refKernel, so a table wired to the
// wrong control bits inside kernel (a swapped pHigh/pLow, say) fails
// here even though perm5 on its own would pass.
func TestSequencesMatchButterflyKernel(t *testing.T) {
	addrs := []uint32{
		Addr28(access.GIAC, 0), // inquiry and inquiry-scan sequences
		Addr28(0x123456, 0x9B),
		Addr28(0xC0FFEE, 0x47),
	}
	for _, addr := range addrs {
		s := NewSelector(addr)
		for i := uint32(0); i < 1<<16; i++ {
			// An odd multiplier is a bijection on 28 bits, so the
			// clocks are distinct and exercise every clock bit.
			clk := (i * 0x9E3779B1) & 0x0FFFFFFF
			check := func(seq string, got, want int) {
				t.Helper()
				if got != want {
					t.Fatalf("addr %#x clk %#x: %s = %d, reference %d", addr, clk, seq, got, want)
				}
			}
			check("Basic", s.Basic(clk), refBasic(s, clk))
			for _, trainA := range []bool{true, false} {
				x := trainX(clk, trainA)
				check("Page", s.Page(clk, trainA), refTrain(s, x, 0))
				check("PageResp", s.PageResp(clk, trainA), refTrain(s, x, 1))
			}
			check("Scan", s.Scan(clk), refTrain(s, ScanX(clk), 0))
			check("RespForX", s.RespForX(clk&0x1F), refTrain(s, clk&0x1F, 1))
		}
	}
}

var benchSink int

// BenchmarkSelectorBasic sweeps Basic over consecutive master-TX clocks
// (CLK1..0 = 0, so one call per two slots), the per-tune path of every
// connected device.
func BenchmarkSelectorBasic(b *testing.B) {
	s := NewSelector(Addr28(0x123456, 0x9B))
	b.ReportAllocs()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += s.Basic(uint32(i) << 2 & 0x0FFFFFFF)
	}
	benchSink = sum
}

// BenchmarkPerm5 feeds perm5 a fixed pseudo-random (z, pHigh, pLow)
// stream, so the cost includes how the tables sit in cache rather than
// a single hot line.
func BenchmarkPerm5(b *testing.B) {
	const n = 4096
	var in [n][3]uint32
	x := uint32(0x2545F491)
	for i := range in {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		in[i] = [3]uint32{x & 0x1F, x >> 5 & 0x1F, x >> 10 & 0x1FF}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint32
	for i := 0; i < b.N; i++ {
		v := &in[i&(n-1)]
		sum += perm5(v[0], v[1], v[2])
	}
	benchSink = int(sum)
}
