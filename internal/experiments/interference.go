package experiments

import (
	"fmt"

	"repro/internal/baseband"
	"repro/internal/core"
	"repro/internal/netspec"
	"repro/internal/packet"
	"repro/internal/runner"
	"repro/internal/stats"
)

// CoexistenceRow compares goodput under a static 802.11-style interferer
// across hop-set strategies: classic hopping, the oracle map that
// excludes the jammed band by construction, and the map the adaptive
// classifier learns from per-frequency reception errors.
type CoexistenceRow struct {
	JammerDuty float64
	PlainKbs   float64 // classic 79-channel hopping
	AFHKbs     float64 // oracle hop set excluding the jammed band
	LearnedKbs float64 // hop set learned by adaptive channel classification
}

// jammerLo..jammerHi is the band the simulated 802.11 network occupies
// (a 22 MHz DSSS channel).
const (
	jammerLo = 30
	jammerHi = 52
)

// coexAssessWindowSlots is the classification window the learned-map arm
// of the coexistence sweep uses.
const coexAssessWindowSlots = 1500

// Coexistence measures master→slave goodput with a static interferer
// over channels 30-52, comparing classic hopping, an oracle AFH map
// that excludes the jammed band by construction, and the map learned by
// adaptive channel classification — the interference problem of the
// paper's references [3-5] and the v1.2 fix. All three arms run the
// identical protocol (same builder, same warm-up, same clean
// measurement window) so the columns of one row are comparable.
func Coexistence(duties []float64, measureSlots uint64, seed uint64, cfg runner.Config) []CoexistenceRow {
	const width = jammerHi - jammerLo + 1
	sw := runner.Sweep[float64, CoexistenceRow]{
		Name:   "coexistence",
		Points: duties,
		Seed:   func(point, _ int) uint64 { return seed + uint64(duties[point]*1000) },
		Trial: func(seed uint64, duty float64) CoexistenceRow {
			arm := func(mode netspec.AFHMode) float64 {
				kbs, _ := adaptiveArm(seed, mode, width, duty, coexAssessWindowSlots, measureSlots)
				return kbs
			}
			return CoexistenceRow{
				JammerDuty: duty,
				PlainKbs:   arm(netspec.AFHOff),
				AFHKbs:     arm(netspec.AFHOracle),
				LearnedKbs: arm(netspec.AFHAdaptive),
			}
		},
	}
	return runner.Flatten(sw.Run(cfg))
}

// CoexistenceTable renders the AFH comparison.
func CoexistenceTable(rows []CoexistenceRow) *stats.Table {
	t := stats.NewTable("Coexistence: goodput under an 802.11 interferer on channels 30-52",
		"jammer_duty", "plain_kbps", "afh_kbps", "learned_kbps", "afh_gain")
	for _, r := range rows {
		gain := 0.0
		if r.PlainKbs > 0 {
			gain = r.AFHKbs / r.PlainKbs
		}
		t.AddRow(fmt.Sprintf("%.0f%%", r.JammerDuty*100), r.PlainKbs, r.AFHKbs, r.LearnedKbs, gain)
	}
	return t
}

// InterferenceRow reports per-piconet goodput with n co-located piconets.
type InterferenceRow struct {
	Piconets   int
	PerLinkKbs float64
	Collisions int
}

// MultiPiconet measures goodput degradation when several independent
// piconets share the room: uncoordinated hop sequences collide at the
// ~1/79 chance level per slot, the scenario of the paper's reference [4].
func MultiPiconet(counts []int, measureSlots uint64, seed uint64, cfg runner.Config) []InterferenceRow {
	sw := runner.Sweep[int, InterferenceRow]{
		Name:   "interference",
		Points: counts,
		Seed:   func(point, _ int) uint64 { return seed + uint64(counts[point]) },
		Trial: func(seed uint64, n int) InterferenceRow {
			s := core.NewSimulation(core.Options{Seed: seed})
			received := make([]int, n)
			for i := 0; i < n; i++ {
				m := s.AddDevice(fmt.Sprintf("master%d", i), baseband.Config{
					Addr:       baseband.BDAddr{LAP: 0x100000 + uint32(i)*0x1111, UAP: uint8(i + 1)},
					TpollSlots: 1 << 20,
				})
				sl := s.AddDevice(fmt.Sprintf("slave%d", i), baseband.Config{
					Addr:       baseband.BDAddr{LAP: 0x500000 + uint32(i)*0x2222, UAP: uint8(i + 101)},
					TpollSlots: 1 << 20,
					// Other piconets' traffic can collide with the handshake;
					// scan continuously so retries land promptly.
					PageScanWindowSlots:   2048,
					PageScanIntervalSlots: 2048,
				})
				lks := s.BuildPiconet(m, sl)
				l := lks[0]
				l.PacketType = packet.TypeDM1
				idx := i
				sl.OnData = func(_ *baseband.Link, p []byte, llid uint8) { received[idx] += len(p) }
				chunk := make([]byte, packet.TypeDM1.MaxPayload())
				var pump func()
				pump = func() {
					for l.QueueLen() < 4 {
						l.Send(chunk, packet.LLIDL2CAPStart)
					}
					m.After(2, pump)
				}
				pump()
			}
			// Earlier piconets pumped data while later ones were still being
			// set up; start the measurement window now.
			for i := range received {
				received[i] = 0
			}
			s.RunSlots(measureSlots)
			total := 0
			for _, r := range received {
				total += r
			}
			return InterferenceRow{
				Piconets:   n,
				PerLinkKbs: netspec.GoodputKbps(total, measureSlots) / float64(n),
				Collisions: s.Ch.Stats().Collisions,
			}
		},
	}
	return runner.Flatten(sw.Run(cfg))
}

// MultiPiconetTable renders the co-located piconet sweep.
func MultiPiconetTable(rows []InterferenceRow) *stats.Table {
	t := stats.NewTable("Interference: per-link goodput with co-located piconets",
		"piconets", "per_link_kbps", "collisions")
	for _, r := range rows {
		t.AddRow(r.Piconets, r.PerLinkKbs, r.Collisions)
	}
	return t
}
