package main

import (
	"math"
	"sort"
)

// Verdicts, per the measuring rules the benchmark follows: a gain needs
// the change to win at least nine tenths of the pairs and the medians
// to differ by more than the parent's own quartile spread; "no worse"
// needs the change's median within the metric's bound of the parent's;
// where the run-to-run spread is wider than the bound the metric is
// unresolved, unless every run of one side reads better than every run
// of the other.
const (
	improved   = "improved"
	noWorse    = "no worse"
	unresolved = "unresolved"
	regressed  = "regressed"
)

// result is one workload × metric row.
type result struct {
	baseMed, changeMed float64
	baseQ, changeQ     [3]float64
	// delta is the change's median relative to the parent's, signed so
	// that positive is worse.
	delta       float64
	wins, pairs int
	verdict     string
}

// judge compares one metric across the two sides' runs.
func judge(base, change []run, m metricDef) result {
	b := values(base, m.Name)
	c := values(change, m.Name)
	var r result
	if len(b) == 0 || len(c) == 0 {
		r.verdict = unresolved
		return r
	}
	r.baseQ, r.changeQ = quartiles(b), quartiles(c)
	r.baseMed, r.changeMed = r.baseQ[1], r.changeQ[1]
	lower := m.Better == "lower"
	better := func(x, y float64) bool { // x reads better than y
		if lower {
			return x < y
		}
		return x > y
	}
	if r.baseMed != 0 {
		r.delta = (r.changeMed - r.baseMed) / math.Abs(r.baseMed)
		if !lower {
			r.delta = -r.delta
		}
	}
	for _, p := range pairs(base, change, m.Name) {
		r.pairs++
		if better(p[1], p[0]) {
			r.wins++
		}
	}
	// minmax(xs, lower) is a side's worst run, minmax(xs, !lower) its best.
	allBetter := better(minmax(c, lower), minmax(b, !lower))
	allWorse := better(minmax(b, lower), minmax(c, !lower))
	spread := math.Max(relSpread(r.baseQ), relSpread(r.changeQ))
	switch {
	case r.pairs > 0 && float64(r.wins) >= 0.9*float64(r.pairs) && r.delta < 0 &&
		math.Abs(r.changeMed-r.baseMed) > r.baseQ[2]-r.baseQ[0]:
		r.verdict = improved
	case allBetter:
		r.verdict = noWorse
	case r.delta > m.Bound && allWorse:
		r.verdict = regressed
	case spread > m.Bound:
		r.verdict = unresolved
	case r.delta > m.Bound:
		r.verdict = regressed
	default:
		r.verdict = noWorse
	}
	return r
}

// minmax returns the largest value when max is set, else the smallest.
func minmax(xs []float64, max bool) float64 {
	v := xs[0]
	for _, x := range xs[1:] {
		if (max && x > v) || (!max && x < v) {
			v = x
		}
	}
	return v
}

func values(runs []run, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// pairs matches runs by seed; runs without a same-seed partner are
// paired in file order.
func pairs(base, change []run, name string) [][2]float64 {
	var out [][2]float64
	used := make([]bool, len(change))
	var restB []float64
	for _, b := range base {
		bv, ok := b.metrics[name]
		if !ok {
			continue
		}
		matched := false
		for i, c := range change {
			cv, ok := c.metrics[name]
			if !used[i] && ok && c.seed == b.seed {
				used[i] = true
				out = append(out, [2]float64{bv, cv})
				matched = true
				break
			}
		}
		if !matched {
			restB = append(restB, bv)
		}
	}
	var restC []float64
	for i, c := range change {
		if cv, ok := c.metrics[name]; ok && !used[i] {
			restC = append(restC, cv)
		}
	}
	for i := 0; i < len(restB) && i < len(restC); i++ {
		out = append(out, [2]float64{restB[i], restC[i]})
	}
	return out
}

// quartiles returns the first quartile, the median and the third
// quartile, computed as Python's statistics.quantiles(xs, n=4) does
// (the "exclusive" method); a single value is all three.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// relSpread is the quartile distance as a share of the median.
func relSpread(q [3]float64) float64 {
	if q[1] == 0 {
		if q[2] == q[0] {
			return 0
		}
		return math.Inf(1)
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}
