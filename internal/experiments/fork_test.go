package experiments

import (
	"reflect"
	"testing"

	"repro/internal/runner"
)

// TestForkEnsemble pins the shape and determinism of the fork
// comparison: forks produce real (nonzero, spread-out) goodput
// observations, and the whole table is schedule-independent.
func TestForkEnsemble(t *testing.T) {
	counts := []int{2}
	rows := ForkEnsemble(counts, 2000, 500, 3, 1, runner.Config{})
	if len(rows) != 1 {
		t.Fatalf("rows %d, want 1", len(rows))
	}
	r := rows[0]
	if r.N != 3 || r.Piconets != 2 {
		t.Fatalf("row identity %+v", r)
	}
	if r.StraightKbs <= 0 || r.ForkKbs <= 0 {
		t.Fatalf("goodput means not positive: %+v", r)
	}
	// Perturbed fork seeds must actually spread the forked ensemble;
	// a zero SD means every fork replayed the same streams.
	if r.ForkSD == 0 {
		t.Fatalf("forked ensemble has zero spread: %+v", r)
	}

	again := ForkEnsemble(counts, 2000, 500, 3, 1, runner.Config{Workers: runner.Serial})
	if !reflect.DeepEqual(rows, again) {
		t.Fatalf("ensemble not schedule-independent:\n  pooled: %+v\n  serial: %+v", rows, again)
	}
}
