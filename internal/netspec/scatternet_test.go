package netspec

import "testing"

// Scatternet worlds: a chain of piconets joined by bridges, each bridge
// a slave in two piconets at once, timesharing its radio and relaying
// L2CAP frames store-and-forward.

const (
	chainSDUBytes  = 64
	chainPumpDepth = 2
)

// chainWorld builds a chain of piconets (one slave each, polled every
// 64 slots) joined by bridges, starts the given flows (the world's
// DefaultFlow when none are passed), and returns the running world.
func chainWorld(t *testing.T, seed uint64, piconets int, bridge []BridgeOption, flows ...FlowSpec) *World {
	t.Helper()
	w := world(t, seed, Spec{
		Piconets: HomogeneousPiconets(piconets, 1, WithTpoll(64)),
		Bridges:  ChainBridges(piconets, bridge...),
	})
	w.StartFlows(chainSDUBytes, chainPumpDepth, flows...)
	return w
}

// measureChain settles for three presence periods, opens a fresh
// window and measures for slots.
func measureChain(w *World, slots uint64) Metrics {
	w.Sim.RunSlots(uint64(3 * w.Bridges[0].Spec().PresencePeriodSlots))
	w.ResetMetrics()
	w.Sim.RunSlots(slots)
	return w.Metrics()
}

func TestBridgeDeliversAcrossPiconets(t *testing.T) {
	w := chainWorld(t, 7, 2, nil)
	m := measureChain(w, 8000)
	if m.EndToEndBytes == 0 {
		t.Fatal("no end-to-end delivery across the bridge")
	}
	if m.RouteMisses != 0 {
		t.Fatalf("%d route misses", m.RouteMisses)
	}
	if m.ForwardedFrames == 0 {
		t.Fatal("bridge forwarded nothing")
	}
	// The radio must actually have timeshared: 8000 slots / half-period
	// of 128 slots is ~62 boundaries.
	if m.MembershipSwitches < 40 {
		t.Fatalf("only %d membership switches over 8000 slots", m.MembershipSwitches)
	}
	// With a saturating source the bounded queue pins the forwarding
	// latency near capacity/drain-rate; far beyond that means the bound
	// stopped working and the queue diverged.
	b := w.Bridges[0].Spec()
	maxLat := float64(b.MaxQueueFrames) * float64(b.PresencePeriodSlots) / 4
	fwd, e2e := m.FwdLatency.Mean(), m.E2ELatency.Mean()
	if fwd <= 0 || fwd > maxLat {
		t.Fatalf("forwarding latency %v slots implausible (bound %v)", fwd, maxLat)
	}
	if e2e < fwd {
		t.Fatalf("end-to-end latency %v below bridge latency %v", e2e, fwd)
	}
	if m.Queue.Max == 0 {
		t.Fatal("queue gauge never saw the backlog")
	}
	if f := w.Flows[0]; f.DeliveredBytes != m.EndToEndBytes {
		t.Fatalf("flow accounting (%d) disagrees with world accounting (%d)",
			f.DeliveredBytes, m.EndToEndBytes)
	}
}

func TestReverseFlowUsesOppositeWindows(t *testing.T) {
	w := chainWorld(t, 11, 2, nil, FlowSpec{From: SlaveName(1, 1), To: MasterName(0)})
	m := measureChain(w, 8000)
	if m.EndToEndBytes == 0 {
		t.Fatal("reverse flow delivered nothing")
	}
	if m.RouteMisses != 0 {
		t.Fatalf("%d route misses", m.RouteMisses)
	}
}

func TestChainOfThreePiconets(t *testing.T) {
	w := chainWorld(t, 13, 3, nil)
	m := measureChain(w, 12000)
	if len(w.Bridges) != 2 {
		t.Fatalf("chain of 3 needs 2 bridges, got %d", len(w.Bridges))
	}
	if m.EndToEndBytes == 0 {
		t.Fatal("no delivery across a two-bridge chain")
	}
	for _, b := range w.Bridges {
		if b.Forwarded == 0 {
			t.Fatalf("bridge %d forwarded nothing", b.Index)
		}
	}
}

// TestShortPeriodBoundaries stresses the retune boundary: with a 64-slot
// period the bridge switches piconets every 32 slots, so mid-exchange
// abandons happen constantly and everything must still flow.
func TestShortPeriodBoundaries(t *testing.T) {
	w := chainWorld(t, 19, 2, []BridgeOption{WithPresencePeriod(64), WithPresence(1)})
	m := measureChain(w, 8000)
	if m.EndToEndBytes == 0 {
		t.Fatal("no delivery under rapid timesharing")
	}
	if m.MembershipSwitches < 200 {
		t.Fatalf("only %d switches with a 64-slot period", m.MembershipSwitches)
	}
}
