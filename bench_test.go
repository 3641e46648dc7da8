package repro_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/experiments"
	"repro/internal/packet"
	"repro/internal/runner"
)

// Each benchmark regenerates one figure of the paper's evaluation with a
// statistically small but structurally complete run (the cmd/btexp
// binary runs the full-resolution versions). Every iteration runs the
// same fixed seed, so b.N changes only the number of timing samples; the
// benchmarks report time and allocations, never figure values.
// TestAllFiguresGolden in internal/experiments gates the values exactly.

// benchSeed is the base seed every figure benchmark iteration uses.
const benchSeed = 1

// figBench runs one figure regeneration per iteration with allocation
// reporting on.
func figBench(b *testing.B, run func()) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkFig5PiconetCreationWaveform: creation of a master + 3 slave
// piconet with full waveform tracing (paper Fig 5).
func BenchmarkFig5PiconetCreationWaveform(b *testing.B) {
	figBench(b, func() {
		links, err := experiments.Fig5Waveforms(io.Discard, benchSeed)
		if err != nil || links != 3 {
			b.Fatalf("creation failed: links=%d err=%v", links, err)
		}
	})
}

// BenchmarkFig6InquiryVsBER: inquiry across two points of the paper's
// BER sweep.
func BenchmarkFig6InquiryVsBER(b *testing.B) {
	bers := []experiments.BERPoint{{Label: "1/100", Value: 0.01}, {Label: "1/30", Value: 1.0 / 30}}
	figBench(b, func() { experiments.InquirySweep(bers, 4, runner.Config{}) })
}

// BenchmarkFig7PageVsBER: page, noiseless and at the paper's worst BER.
func BenchmarkFig7PageVsBER(b *testing.B) {
	bers := []experiments.BERPoint{{Label: "0", Value: 0}, {Label: "1/30", Value: 1.0 / 30}}
	figBench(b, func() { experiments.PageSweep(bers, 4, runner.Config{}) })
}

// BenchmarkFig8CreationFailure: both creation phases at the paper's
// worst BER, where page is the bottleneck.
func BenchmarkFig8CreationFailure(b *testing.B) {
	bers := []experiments.BERPoint{{Label: "1/30", Value: 1.0 / 30}}
	figBench(b, func() {
		experiments.InquirySweep(bers, 4, runner.Config{})
		experiments.PageSweep(bers, 4, runner.Config{})
	})
}

// BenchmarkFig9SniffWaveform: two slaves in sniff mode with waveform
// tracing (paper Fig 9).
func BenchmarkFig9SniffWaveform(b *testing.B) {
	figBench(b, func() {
		if err := experiments.Fig9Waveforms(io.Discard, 20, 2, benchSeed); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkFig10MasterActivity: master RF activity at a 2% duty cycle.
func BenchmarkFig10MasterActivity(b *testing.B) {
	figBench(b, func() {
		experiments.Fig10MasterActivity([]float64{0.02}, 10000, benchSeed, runner.Config{})
	})
}

// BenchmarkFig11SniffActivity: slave activity, active vs sniff at
// Tsniff=100.
func BenchmarkFig11SniffActivity(b *testing.B) {
	figBench(b, func() {
		experiments.Fig11SniffActivity([]int{100}, 100, 10000, benchSeed, runner.Config{})
	})
}

// BenchmarkFig12HoldActivity: slave activity, active vs repeating hold
// at Thold=120, the paper's crossover point.
func BenchmarkFig12HoldActivity(b *testing.B) {
	figBench(b, func() {
		experiments.Fig12HoldActivity([]int{120}, 20000, benchSeed, runner.Config{})
	})
}

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationBackoffSpan(b *testing.B) {
	figBench(b, func() { experiments.AblationBackoff([]int{127, 1023}, 0.01, 3, runner.Config{}) })
}

func BenchmarkAblationNInquiry(b *testing.B) {
	figBench(b, func() { experiments.AblationNInquiry([]int{256}, 0.01, 3, runner.Config{}) })
}

func BenchmarkAblationCorrelator(b *testing.B) {
	figBench(b, func() { experiments.AblationCorrelator([]int{1}, 1.0/30, 3, runner.Config{}) })
}

// BenchmarkAblationPacketTypes: DM vs DH goodput under noise (the
// packet-choice trade-off the paper's introduction motivates).
func BenchmarkAblationPacketTypes(b *testing.B) {
	types := []packet.Type{packet.TypeDM1, packet.TypeDH5}
	bers := []experiments.BERPoint{{Label: "1/300", Value: 1.0 / 300}}
	figBench(b, func() { experiments.PacketTypeThroughput(types, bers, 3000, benchSeed, runner.Config{}) })
}

// BenchmarkVoiceQuality: SCO frame quality per HV type at BER 1/200.
func BenchmarkVoiceQuality(b *testing.B) {
	types := []packet.Type{packet.TypeHV1, packet.TypeHV3}
	bers := []experiments.BERPoint{{Label: "1/200", Value: 1.0 / 200}}
	figBench(b, func() { experiments.VoiceQuality(types, bers, 3000, benchSeed, runner.Config{}) })
}

// BenchmarkCoexistenceAFH: goodput with and without adaptive frequency
// hopping under an 802.11-style interferer.
func BenchmarkCoexistenceAFH(b *testing.B) {
	figBench(b, func() { experiments.Coexistence([]float64{0.9}, 6000, benchSeed, runner.Config{}) })
}

// BenchmarkMultiPiconetInterference: per-link goodput with co-located
// piconets (FHSS collision resilience).
func BenchmarkMultiPiconetInterference(b *testing.B) {
	figBench(b, func() { experiments.MultiPiconet([]int{3}, 6000, benchSeed, runner.Config{}) })
}

// BenchmarkRunnerReplicasPerSec is the runner-level smoke benchmark: a
// Fig-6-class inquiry sweep (2 BER points × 16 seeds) through the
// worker pool at 1, 2 and 4 workers, reporting replicas/sec. The tables
// are byte-identical at every pool width (TestRunnerDeterminism); only
// the wall clock changes, so the replicas/s ratio between the sub-
// benchmarks is the parallel speedup on this machine.
func BenchmarkRunnerReplicasPerSec(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runnerBench(b, runner.Config{Workers: workers})
		})
	}
}

// BenchmarkRunnerSerialBaseline is the same sweep with no pool at all —
// the reference point for the pool's scheduling overhead.
func BenchmarkRunnerSerialBaseline(b *testing.B) {
	runnerBench(b, runner.Config{Workers: runner.Serial})
}

// runnerBench times the runner benchmarks' inquiry sweep under cfg.
func runnerBench(b *testing.B, cfg runner.Config) {
	bers := []experiments.BERPoint{{Label: "1/100", Value: 0.01}, {Label: "1/30", Value: 1.0 / 30}}
	const seeds = 16
	for i := 0; i < b.N; i++ {
		experiments.InquirySweep(bers, seeds, cfg)
	}
	replicas := float64(len(bers) * seeds * b.N)
	b.ReportMetric(replicas/b.Elapsed().Seconds(), "replicas/s")
}

// BenchmarkScatternetForwarding exercises the whole scatternet
// pipeline — chain build, bridge paging, presence negotiation, the
// membership scheduler and the L2CAP store-and-forward relay — through
// one bridge at 80% presence duty.
func BenchmarkScatternetForwarding(b *testing.B) {
	figBench(b, func() { experiments.ScatternetSweep([]float64{0.8}, 6000, 1, benchSeed, runner.Config{}) })
}
