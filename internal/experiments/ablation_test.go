package experiments

import (
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/runner"
)

func TestAblationBackoffMonotone(t *testing.T) {
	rows := AblationBackoff([]int{127, 1023}, 0.01, 8, runner.Config{})
	if len(rows) != 2 {
		t.Fatal("row count")
	}
	short, long := rows[0], rows[1]
	// The backoff dominates the inquiry mean: a short span must discover
	// much faster.
	if short.MeanTS >= long.MeanTS {
		t.Fatalf("backoff 127 mean %v >= backoff 1023 mean %v", short.MeanTS, long.MeanTS)
	}
	if short.FailRate > long.FailRate+0.2 {
		t.Fatalf("short backoff should not fail more: %v vs %v", short.FailRate, long.FailRate)
	}
}

func TestAblationNInquirySpecValueTimesOut(t *testing.T) {
	rows := AblationNInquiry([]int{64, 256}, 0.01, 8, runner.Config{})
	paper, spec := rows[0], rows[1]
	// With the spec's 256 repetitions the A→B swap happens after the
	// paper's timeout: scanners on a B-train phase are unreachable, so
	// failures rise substantially.
	if spec.FailRate <= paper.FailRate {
		t.Fatalf("NInquiry=256 must fail more under a 1.28s timeout: %v vs %v",
			spec.FailRate, paper.FailRate)
	}
}

func TestAblationCorrelatorStrictThresholdHurts(t *testing.T) {
	// Threshold 1 (not 0: zero-valued config fields mean "default") at
	// BER 1/30: only ~37%% of sync words arrive with at most one error,
	// and every lost FHS costs a full backoff cycle.
	rows := AblationCorrelator([]int{1, 7}, 1.0/30, 12, runner.Config{})
	strict, normal := rows[0], rows[1]
	if strict.FailRate <= normal.FailRate {
		t.Fatalf("threshold 1 must fail more at BER 1/30: %v vs %v",
			strict.FailRate, normal.FailRate)
	}
}

func TestPacketTypeThroughputTradeoffs(t *testing.T) {
	types := []packet.Type{packet.TypeDM1, packet.TypeDH5}
	bers := []BERPoint{{"0", 0}, {"1/150", 1.0 / 150}}
	rows := PacketTypeThroughput(types, bers, 3000, 5, runner.Config{})
	get := func(ty packet.Type, label string) ThroughputRow {
		for _, r := range rows {
			if r.Type == ty && r.BER.Label == label {
				return r
			}
		}
		t.Fatalf("missing row %v/%s", ty, label)
		return ThroughputRow{}
	}
	dm1c, dh5c := get(packet.TypeDM1, "0"), get(packet.TypeDH5, "0")
	// Clean channel: the big unprotected packet wins by a wide margin.
	if dh5c.GoodputKbs <= dm1c.GoodputKbs*2 {
		t.Fatalf("DH5 clean %v should dwarf DM1 clean %v", dh5c.GoodputKbs, dm1c.GoodputKbs)
	}
	dh5n := get(packet.TypeDH5, "1/150")
	// Noise collapses DH5: a 2871-bit packet with one CRC almost always
	// dies at BER 1/150.
	if dh5n.GoodputKbs > dh5c.GoodputKbs/3 {
		t.Fatalf("DH5 under noise %v did not collapse (clean %v)", dh5n.GoodputKbs, dh5c.GoodputKbs)
	}
	dm1n := get(packet.TypeDM1, "1/150")
	// The FEC-protected type keeps most of its goodput.
	if dm1n.GoodputKbs < dm1c.GoodputKbs/2 {
		t.Fatalf("DM1 under noise %v lost too much (clean %v)", dm1n.GoodputKbs, dm1c.GoodputKbs)
	}
	if !strings.Contains(ThroughputTable(rows).String(), "goodput_kbps") {
		t.Fatal("table broken")
	}
}

func TestAblationTableRenders(t *testing.T) {
	tbl := AblationTable("t", "p", []AblationRow{{Param: 64, MeanTS: 900, FailRate: 0.1}})
	if !strings.Contains(tbl.String(), "900") {
		t.Fatal("table missing data")
	}
}
