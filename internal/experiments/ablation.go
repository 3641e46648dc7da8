package experiments

import (
	"repro/internal/baseband"
	"repro/internal/packet"
	"repro/internal/runner"
	"repro/internal/stats"
)

// AblationRow is one configuration point of a design-choice sweep.
type AblationRow struct {
	Param    int
	MeanTS   float64
	FailRate float64
}

// inquiryAblation runs the shared shape of the design sweeps: an
// inquiry attempt per (param, seed) with one config knob set per point,
// fanned out by the runner and folded per point in replica order.
func inquiryAblation(name string, params []int, ber float64, seeds int, cfg runner.Config, seedOf func(replica int) uint64, set func(*baseband.Config, int)) []AblationRow {
	sw := runner.Sweep[int, phaseStats]{
		Name:     name,
		Points:   params,
		Replicas: seeds,
		Seed:     func(_, replica int) uint64 { return seedOf(replica) },
		Trial: func(seed uint64, param int) phaseStats {
			trial := inquiryTrial(func(c *baseband.Config) { set(c, param) })
			return trial(seed, BERPoint{Value: ber})
		},
	}
	return runner.ReducePoints(params, sw.Run(cfg), func(param int, reps []phaseStats) AblationRow {
		var acc phaseStats
		for i := range reps {
			acc.merge(&reps[i])
		}
		return AblationRow{Param: param, MeanTS: acc.TS.Mean(), FailRate: acc.Fail.FailureRate()}
	})
}

// AblationBackoff sweeps the inquiry-response random-backoff span: a
// short span speeds discovery (the backoff dominates the inquiry mean)
// but in dense deployments would collide responses; the spec value is
// 1023.
func AblationBackoff(spans []int, ber float64, seeds int, cfg runner.Config) []AblationRow {
	return inquiryAblation("ablation-backoff", spans, ber, seeds, cfg,
		func(replica int) uint64 { return uint64(replica)*31337 + 11 },
		func(c *baseband.Config, span int) { c.BackoffMaxSlots = span })
}

// AblationNInquiry sweeps the train repetition count: the spec's 256
// repetitions push the A→B train swap past the paper's 1.28 s timeout,
// so scanners parked on a B-train phase are never found — the reason the
// reproduction (and presumably the paper) uses a smaller value.
func AblationNInquiry(ns []int, ber float64, seeds int, cfg runner.Config) []AblationRow {
	return inquiryAblation("ablation-ninquiry", ns, ber, seeds, cfg,
		func(replica int) uint64 { return uint64(replica)*7451 + 5 },
		func(c *baseband.Config, n int) { c.NInquiry = n })
}

// AblationCorrelator sweeps the sync-word error threshold: too strict
// and noise drops IDs (discovery slows), too loose and false sync would
// rise in a real radio (the model only shows the robustness side).
func AblationCorrelator(thresholds []int, ber float64, seeds int, cfg runner.Config) []AblationRow {
	return inquiryAblation("ablation-correlator", thresholds, ber, seeds, cfg,
		func(replica int) uint64 { return uint64(replica)*94261 + 17 },
		func(c *baseband.Config, th int) { c.CorrelatorThreshold = th })
}

// AblationTable renders a design sweep.
func AblationTable(title, param string, rows []AblationRow) *stats.Table {
	t := stats.NewTable(title, param, "inquiry_mean_TS", "inquiry_fail")
	for _, r := range rows {
		t.AddRow(r.Param, r.MeanTS, r.FailRate)
	}
	return t
}

// ThroughputRow reports effective one-way goodput for a packet type at
// one BER.
type ThroughputRow struct {
	Type       packet.Type
	BER        BERPoint
	GoodputKbs float64
	Retransmit int
}

// PacketTypeThroughput measures master→slave goodput for each ACL packet
// type under noise: the DM types sacrifice capacity for FEC robustness,
// the DH types win on clean channels and collapse under noise — the
// packet-choice trade-off the paper's introduction motivates.
func PacketTypeThroughput(types []packet.Type, bers []BERPoint, measureSlots uint64, seed uint64, cfg runner.Config) []ThroughputRow {
	points := runner.Cross(types, bers)
	sw := runner.Sweep[runner.Pair[packet.Type, BERPoint], ThroughputRow]{
		Name:   "throughput",
		Points: points,
		Seed:   func(point, _ int) uint64 { return seed + uint64(points[point].A)<<8 },
		Trial: func(seed uint64, p runner.Pair[packet.Type, BERPoint]) ThroughputRow {
			ty, b := p.A, p.B
			s, m, sl := twoDevicesCfg(seed, b.Value, func(c *baseband.Config) {
				c.TpollSlots = 1 << 20
			})
			lks := s.BuildPiconet(m, sl)
			l := lks[0]
			l.PacketType = ty
			received := 0
			sl.OnData = func(_ *baseband.Link, p []byte, llid uint8) { received += len(p) }
			// Keep the transmit queue saturated.
			chunk := make([]byte, ty.MaxPayload())
			var pump func()
			pump = func() {
				for l.QueueLen() < 4 {
					l.Send(chunk, packet.LLIDL2CAPStart)
				}
				m.After(uint64(ty.Slots())*2, pump)
			}
			pump()
			s.RunSlots(measureSlots)
			seconds := float64(measureSlots) * 625e-6
			return ThroughputRow{
				Type:       ty,
				BER:        b,
				GoodputKbs: float64(received) * 8 / 1000 / seconds,
				Retransmit: m.Counters.Retransmits,
			}
		},
	}
	return runner.Flatten(sw.Run(cfg))
}

// ThroughputTable renders the packet-type ablation.
func ThroughputTable(rows []ThroughputRow) *stats.Table {
	t := stats.NewTable("Packet-type ablation: master→slave goodput under noise",
		"type", "BER", "goodput_kbps", "retransmits")
	for _, r := range rows {
		t.AddRow(r.Type.String(), r.BER.Label, r.GoodputKbs, r.Retransmit)
	}
	return t
}
