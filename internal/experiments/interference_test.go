package experiments

import (
	"strings"
	"testing"

	"repro/internal/runner"
)

func TestCoexistenceAFHRecoversGoodput(t *testing.T) {
	rows := Coexistence([]float64{0, 0.9}, 4000, 11, runner.Config{})
	clean, jammed := rows[0], rows[1]
	if clean.PlainKbs <= 0 {
		t.Fatal("no baseline goodput")
	}
	// Without interference AFH costs nothing (same capacity).
	if ratio := clean.AFHKbs / clean.PlainKbs; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("AFH on a clean channel changed goodput by %vx", ratio)
	}
	// A 90%-duty jammer over 23/79 channels costs classic hopping a
	// large fraction of its goodput; AFH avoids the band entirely.
	if jammed.PlainKbs >= clean.PlainKbs*0.85 {
		t.Fatalf("jammer had no effect: %v vs clean %v", jammed.PlainKbs, clean.PlainKbs)
	}
	if jammed.AFHKbs <= jammed.PlainKbs*1.1 {
		t.Fatalf("AFH did not help: %v vs plain %v", jammed.AFHKbs, jammed.PlainKbs)
	}
	if jammed.AFHKbs < clean.PlainKbs*0.9 {
		t.Fatalf("AFH should restore nearly full goodput: %v vs clean %v",
			jammed.AFHKbs, clean.PlainKbs)
	}
	if !strings.Contains(CoexistenceTable(rows).String(), "afh_gain") {
		t.Fatal("table broken")
	}
}

func TestMultiPiconetDegradation(t *testing.T) {
	rows := MultiPiconet([]int{1, 3}, 4000, 13, runner.Config{})
	single, triple := rows[0], rows[1]
	if single.PerLinkKbs <= 0 {
		t.Fatal("no single-piconet goodput")
	}
	if single.Collisions != 0 {
		t.Fatalf("a lone piconet cannot collide with itself: %d", single.Collisions)
	}
	if triple.Collisions == 0 {
		t.Fatal("co-located piconets must collide occasionally")
	}
	// Degradation exists but FHSS keeps it mild (~1-2 collisions per 79
	// slot-pairs per foreign piconet).
	if triple.PerLinkKbs >= single.PerLinkKbs {
		t.Fatalf("no degradation: %v vs %v", triple.PerLinkKbs, single.PerLinkKbs)
	}
	if triple.PerLinkKbs < single.PerLinkKbs*0.7 {
		t.Fatalf("degradation implausibly harsh: %v vs %v", triple.PerLinkKbs, single.PerLinkKbs)
	}
	if !strings.Contains(MultiPiconetTable(rows).String(), "per_link_kbps") {
		t.Fatal("table broken")
	}
}
