package experiments

import (
	"repro/internal/packet"
	"repro/internal/runner"
	"repro/internal/stats"
)

// VoiceRow reports SCO voice quality for one packet type at one BER.
type VoiceRow struct {
	Type packet.Type
	BER  BERPoint
	// Delivered is the fraction of frames that arrived at all.
	Delivered float64
	// BitPerfect is the fraction of frames that arrived without any
	// residual error (the audio-quality proxy).
	BitPerfect float64
}

// VoiceQuality measures full-rate SCO voice under noise for each HV
// type: HV1's repetition code trades capacity for robustness, HV3 the
// reverse — the synchronous-link side of the packet-choice analysis the
// paper's introduction motivates.
func VoiceQuality(types []packet.Type, bers []BERPoint, measureSlots uint64, seed uint64, cfg runner.Config) []VoiceRow {
	points := runner.Cross(types, bers)
	sw := runner.Sweep[runner.Pair[packet.Type, BERPoint], VoiceRow]{
		Name:   "voice",
		Points: points,
		Seed:   func(point, _ int) uint64 { return seed + uint64(points[point].A) },
		Trial: func(seed uint64, p runner.Pair[packet.Type, BERPoint]) VoiceRow {
			ty, b := p.A, p.B
			s, m, sl := twoDevicesCfg(seed, b.Value, nil)
			lks := s.BuildPiconet(m, sl)
			// Full-rate period for the type so capacities are comparable.
			tsco := map[packet.Type]int{
				packet.TypeHV1: 2, packet.TypeHV2: 4, packet.TypeHV3: 6,
			}[ty]
			msco := m.AddSCO(lks[0], ty, tsco, 0)
			ssco := sl.AcceptSCO(ty, tsco, 0)
			pattern := byte(0x5A)
			msco.Source = func() []byte {
				f := make([]byte, ty.MaxPayload())
				for i := range f {
					f[i] = pattern
				}
				return f
			}
			perfect := 0
			ssco.Sink = func(f []byte) {
				for _, by := range f {
					if by != pattern {
						return
					}
				}
				perfect++
			}
			s.RunSlots(measureSlots)
			if msco.TxFrames == 0 {
				// Degenerate run; filtered out of the table below.
				return VoiceRow{Type: ty, BER: b, Delivered: -1}
			}
			return VoiceRow{
				Type:       ty,
				BER:        b,
				Delivered:  float64(ssco.RxFrames) / float64(msco.TxFrames),
				BitPerfect: float64(perfect) / float64(msco.TxFrames),
			}
		},
	}
	rows := runner.Flatten(sw.Run(cfg))
	out := rows[:0]
	for _, r := range rows {
		if r.Delivered >= 0 {
			out = append(out, r)
		}
	}
	return out
}

// VoiceTable renders the voice-quality sweep.
func VoiceTable(rows []VoiceRow) *stats.Table {
	t := stats.NewTable("SCO voice quality under noise (full-rate HV links)",
		"type", "BER", "delivered", "bit_perfect")
	for _, r := range rows {
		t.AddRow(r.Type.String(), r.BER.Label, r.Delivered, r.BitPerfect)
	}
	return t
}
