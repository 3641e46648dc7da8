package netspec

import (
	"testing"

	"repro/internal/hop"
)

// coexWorld builds the classic coexistence world: n co-located
// piconets with a saturating bulk pump on every link and polling left
// to the pumped data. The world is built but not started.
func coexWorld(t *testing.T, seed uint64, piconets, slaves int, opts ...PiconetOption) *World {
	t.Helper()
	opts = append([]PiconetOption{WithTpoll(TpollNever)}, opts...)
	return world(t, seed, Spec{
		Piconets: HomogeneousPiconets(piconets, slaves, opts...),
		Traffic:  []Traffic{BulkTraffic(AllPiconets)},
	})
}

// withReprobe sets how many silent windows a bad verdict survives.
func withReprobe(windows int) PiconetOption {
	return func(p *Piconet) { p.ReprobeWindows = windows }
}

func TestFourPiconetsCollideAcrossPiconets(t *testing.T) {
	w := coexWorld(t, 7, 4, 1)
	w.Start()
	w.Sim.RunSlots(64)
	w.ResetMetrics()
	w.Sim.RunSlots(4000)
	m := w.Metrics()
	if len(w.Piconets) != 4 {
		t.Fatalf("built %d piconets", len(w.Piconets))
	}
	for i, p := range w.Piconets {
		if len(p.Links) != 1 {
			t.Fatalf("piconet %d has %d links", i, len(p.Links))
		}
		if m.PerPiconet[i] == 0 {
			t.Fatalf("piconet %d delivered nothing", i)
		}
	}
	if m.Inter == 0 {
		t.Fatal("four uncoordinated piconets must collide across piconets")
	}
	// TDD inside a piconet leaves essentially no room for intra-piconet
	// overlap; inter-piconet pairs must dominate.
	if m.Intra > m.Inter {
		t.Fatalf("intra collisions (%d) exceed inter (%d)", m.Intra, m.Inter)
	}
}

func TestAdaptiveClassifierLearnsJammedBand(t *testing.T) {
	const lo, hi = 30, 52
	w := coexWorld(t, 3, 1, 1, WithAdaptiveAFH(1500))
	w.Sim.Ch.AddJammer(lo, hi, 0.9)
	w.Start()
	// Two windows plus the LMP switch instant.
	w.Sim.RunSlots(ConvergenceSlots(1500))
	p := w.Piconets[0]
	cm := p.CurrentMap()
	if cm == nil {
		t.Fatal("classifier never installed a map")
	}
	if p.MapUpdates == 0 {
		t.Fatal("MapUpdates not counted")
	}
	excluded := 0
	for ch := lo; ch <= hi; ch++ {
		if !cm.Used(ch) {
			excluded++
		}
	}
	if excluded < (hi-lo+1)*8/10 {
		t.Fatalf("learned map excludes only %d/%d jammed channels", excluded, hi-lo+1)
	}
	// Clean channels must stay in the map.
	keptClean := 0
	for ch := 0; ch < hop.NumChannels; ch++ {
		if (ch < lo || ch > hi) && cm.Used(ch) {
			keptClean++
		}
	}
	if keptClean < (hop.NumChannels-(hi-lo+1))*9/10 {
		t.Fatalf("learned map dropped clean channels: only %d kept", keptClean)
	}
	// Both ends must actually hop on the learned map (LMP installed it).
	if p.Master.AFHMap() == nil || p.Slaves[0].AFHMap() == nil {
		t.Fatal("map not installed on both ends over LMP")
	}
}

func TestMinimumChannelSetRespected(t *testing.T) {
	// Jam almost the whole band: the classifier must keep at least the
	// spec minimum of 20 channels rather than panic in NewChannelMap.
	w := coexWorld(t, 9, 1, 1, WithAdaptiveAFH(1500))
	w.Sim.Ch.AddJammer(0, 74, 0.95)
	w.Start()
	w.Sim.RunSlots(4 * 1500)
	cm := w.Piconets[0].CurrentMap()
	if cm == nil {
		t.Skip("classifier saw too few observations to act") // extremely hostile band
	}
	if cm.N() < hop.MinAFHChannels {
		t.Fatalf("map has %d channels, below the spec minimum %d", cm.N(), hop.MinAFHChannels)
	}
}

func TestReprobeReadmitsAfterJammerLeaves(t *testing.T) {
	// A bad verdict must not outlive its evidence forever: once the
	// jammer goes away, the re-probe mechanism re-admits the band and
	// the next window confirms it clean.
	const lo, hi = 30, 52
	w := coexWorld(t, 15, 1, 1, WithAdaptiveAFH(1000), withReprobe(3))
	w.Sim.Ch.AddJammer(lo, hi, 0.9)
	w.Start()
	w.Sim.RunSlots(ConvergenceSlots(1000))
	if w.Piconets[0].CurrentMap() == nil {
		t.Fatal("classifier never excluded the jammed band")
	}
	w.Sim.Ch.ClearJammers()
	// Three silent windows to trigger the re-probe, one to confirm the
	// channels clean, plus the LMP switch instant.
	w.Sim.RunSlots(5*1000 + 600)
	cm := w.Piconets[0].CurrentMap()
	readmitted := 0
	for ch := lo; ch <= hi; ch++ {
		if cm == nil || cm.Used(ch) {
			readmitted++
		}
	}
	if readmitted < (hi-lo+1)*8/10 {
		t.Fatalf("only %d/%d formerly-jammed channels re-admitted after the jammer left", readmitted, hi-lo+1)
	}
}

func TestMultiSlaveFairness(t *testing.T) {
	// Saturating pumps on every link must not let AM_ADDR 1 monopolise
	// the master's transmit slots: the round-robin scheduler has to give
	// every slave a comparable share.
	w := coexWorld(t, 27, 1, 3)
	w.Start()
	w.Sim.RunSlots(64)
	w.ResetMetrics()
	w.Sim.RunSlots(6000)
	p := w.Piconets[0]
	total := 0
	for _, r := range p.Received {
		total += r
	}
	if total == 0 {
		t.Fatal("no traffic delivered")
	}
	for j, r := range p.Received {
		share := float64(r) / float64(total)
		if share < 0.2 {
			t.Fatalf("slave %d starved: got %d/%d bytes (share %.2f)", j+1, r, total, share)
		}
	}
}

func TestResetMetricsOpensFreshWindow(t *testing.T) {
	w := coexWorld(t, 13, 2, 1)
	w.Start()
	w.Sim.RunSlots(2000)
	if w.Metrics().Bytes == 0 {
		t.Fatal("no traffic before reset")
	}
	w.ResetMetrics()
	m := w.Metrics()
	if m.Bytes != 0 || m.Inter != 0 || m.Intra != 0 || m.Retransmits != 0 {
		t.Fatalf("reset left residue: %+v", m)
	}
}
