package experiments

import (
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/runner"
)

func TestVoiceQualityOrdering(t *testing.T) {
	types := []packet.Type{packet.TypeHV1, packet.TypeHV2, packet.TypeHV3}
	bers := []BERPoint{{"1/200", 1.0 / 200}}
	rows := VoiceQuality(types, bers, 3000, 21, runner.Config{})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(ty packet.Type) VoiceRow {
		for _, r := range rows {
			if r.Type == ty {
				return r
			}
		}
		t.Fatalf("missing %v", ty)
		return VoiceRow{}
	}
	hv1, hv2, hv3 := get(packet.TypeHV1), get(packet.TypeHV2), get(packet.TypeHV3)
	if hv1.BitPerfect < hv2.BitPerfect || hv2.BitPerfect < hv3.BitPerfect {
		t.Fatalf("quality ordering violated: %.2f %.2f %.2f",
			hv1.BitPerfect, hv2.BitPerfect, hv3.BitPerfect)
	}
	if hv1.BitPerfect < 0.9 {
		t.Fatalf("HV1 quality %.2f too low at BER 1/200", hv1.BitPerfect)
	}
	// HV3 still *delivers* (no CRC to reject frames) even when corrupted.
	if hv3.Delivered < hv3.BitPerfect {
		t.Fatal("delivery cannot be below bit-perfect rate")
	}
	if !strings.Contains(VoiceTable(rows).String(), "bit_perfect") {
		t.Fatal("table broken")
	}
}

func TestVoiceCleanChannelPerfect(t *testing.T) {
	rows := VoiceQuality([]packet.Type{packet.TypeHV3}, []BERPoint{{"0", 0}}, 2000, 22, runner.Config{})
	if len(rows) != 1 || rows[0].BitPerfect < 0.99 {
		t.Fatalf("clean channel voice imperfect: %+v", rows)
	}
}
