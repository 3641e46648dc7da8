package experiments

import (
	"strings"
	"testing"

	"repro/internal/runner"
)

func TestInquirySweepShape(t *testing.T) {
	rows := InquirySweep([]BERPoint{{"1/100", 0.01}, {"1/30", 1.0 / 30}}, 6, runner.Config{})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	lo, hi := rows[0], rows[1]
	if lo.FailRate > 0.6 {
		t.Fatalf("inquiry at BER 1/100 failing %.0f%% of the time", lo.FailRate*100)
	}
	if lo.MeanTS <= 0 || lo.MeanTS > TimeoutSlots {
		t.Fatalf("inquiry mean TS = %v", lo.MeanTS)
	}
	// Inquiry is robust to noise: even at 1/30 it mostly succeeds
	// (ID packets tolerate errors), unlike page.
	if hi.FailRate > 0.9 {
		t.Fatalf("inquiry at 1/30 fail rate %.2f too high", hi.FailRate)
	}
}

func TestPageSweepShape(t *testing.T) {
	rows := PageSweep([]BERPoint{{"0", 0}, {"1/100", 0.01}, {"1/30", 1.0 / 30}}, 8, runner.Config{})
	clean, mid, noisy := rows[0], rows[1], rows[2]
	if clean.FailRate != 0 {
		t.Fatalf("noiseless page failed %.2f", clean.FailRate)
	}
	// Paper: ~17 TS noiseless; our handshake lands in the same regime.
	if clean.MeanTS > 64 {
		t.Fatalf("noiseless page mean = %v TS, want tens", clean.MeanTS)
	}
	// Successful pages complete within the scan window, so the mean moves
	// little with noise (the paper's slowdown shows up as failures in our
	// retry discipline); it must at least stay in the same regime.
	if mid.MeanTS > clean.MeanTS*4 {
		t.Fatalf("page mean exploded: %v vs %v", mid.MeanTS, clean.MeanTS)
	}
	if mid.FailRate <= clean.FailRate {
		t.Fatalf("noise must cost page failures: %v <= %v", mid.FailRate, clean.FailRate)
	}
	// Paper: page nearly impossible beyond 1/30.
	if noisy.FailRate < 0.5 {
		t.Fatalf("page at 1/30 fail rate %.2f, want high", noisy.FailRate)
	}
}

func TestFigTablesRender(t *testing.T) {
	inq := []PhaseResult{{BER: BERPoint{"1/100", 0.01}, MeanTS: 1500, FailRate: 0.1, N: 4}}
	pg := []PhaseResult{{BER: BERPoint{"1/100", 0.01}, MeanTS: 20, FailRate: 0.2, N: 4}}
	if !strings.Contains(Fig6Table(inq).String(), "1/100") {
		t.Fatal("fig6 table broken")
	}
	if !strings.Contains(Fig7Table(pg).String(), "20") {
		t.Fatal("fig7 table broken")
	}
	f8 := Fig8Table(inq, pg).CSV()
	if !strings.Contains(f8, "0.28") { // 1-(0.9*0.8) = 0.28
		t.Fatalf("fig8 combined failure wrong:\n%s", f8)
	}
}

func TestFig5WaveformsProduceVCD(t *testing.T) {
	var sb strings.Builder
	links, err := Fig5Waveforms(&sb, 42)
	if err != nil {
		t.Fatal(err)
	}
	if links != 3 {
		t.Fatalf("links = %d, want 3", links)
	}
	out := sb.String()
	for _, want := range []string{"enable_rx_RF", "enable_tx_RF", "slave3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("VCD missing %q", want)
		}
	}
}

func TestFig9WaveformsProduceVCD(t *testing.T) {
	var sb strings.Builder
	if err := Fig9Waveforms(&sb, 20, 2, 43); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "slave2") {
		t.Fatal("VCD missing sniffing slave")
	}
}

func TestFig10LinearInDutyCycle(t *testing.T) {
	rows := Fig10MasterActivity([]float64{0, 0.01, 0.02}, 4000, 1, runner.Config{})
	if rows[0].TxActivity != 0 {
		t.Fatalf("idle master TX activity = %v", rows[0].TxActivity)
	}
	if rows[1].TxActivity <= 0 || rows[2].TxActivity <= rows[1].TxActivity {
		t.Fatalf("TX not increasing: %+v", rows)
	}
	// Roughly linear: doubling duty ~doubles TX activity.
	ratio := rows[2].TxActivity / rows[1].TxActivity
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("TX linearity off: ratio = %v", ratio)
	}
	// TX above RX (data packets are longer than NULL responses).
	if rows[2].RxActivity >= rows[2].TxActivity {
		t.Fatalf("RX %v >= TX %v", rows[2].RxActivity, rows[2].TxActivity)
	}
	if !strings.Contains(Fig10Table(rows).String(), "duty_cycle") {
		t.Fatal("table broken")
	}
}

func TestFig11SniffCrossover(t *testing.T) {
	rows := Fig11SniffActivity([]int{20, 100}, 100, 6000, 2, runner.Config{})
	short, long := rows[0], rows[1]
	if short.Active <= 0 || long.Sniff <= 0 {
		t.Fatalf("degenerate activities: %+v", rows)
	}
	// Paper: sniff saves ~30% at Tsniff=100 but nothing at Tsniff=20.
	if long.Sniff >= long.Active {
		t.Fatalf("sniff at 100 must beat active: %v vs %v", long.Sniff, long.Active)
	}
	if short.Sniff <= long.Sniff {
		t.Fatalf("shorter Tsniff must cost more: %v <= %v", short.Sniff, long.Sniff)
	}
	saving := 1 - long.Sniff/long.Active
	if saving < 0.15 || saving > 0.5 {
		t.Fatalf("saving at Tsniff=100 = %.2f, want ~0.3", saving)
	}
	if !strings.Contains(Fig11Table(rows).String(), "saving") {
		t.Fatal("table broken")
	}
}

func TestFig12HoldCrossover(t *testing.T) {
	rows := Fig12HoldActivity([]int{50, 1000}, 8000, 3, runner.Config{})
	short, long := rows[0], rows[1]
	// Active mode: the paper's flat ~2.6%.
	if short.Active < 0.015 || short.Active > 0.04 {
		t.Fatalf("active baseline = %.4f, want ~0.026", short.Active)
	}
	// Short holds cost more than active; long holds much less.
	if short.Hold <= short.Active {
		t.Fatalf("hold at 50 TS should not pay off: %v vs %v", short.Hold, short.Active)
	}
	if long.Hold >= long.Active/2 {
		t.Fatalf("hold at 1000 TS must be cheap: %v vs %v", long.Hold, long.Active)
	}
	if !strings.Contains(Fig12Table(rows).String(), "Thold_slots") {
		t.Fatal("table broken")
	}
}
