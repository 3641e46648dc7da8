package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and quantiles([1, 2, 3], n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// draw makes n synthetic runs of one metric around mean with relative
// noise sd, seeds 1..n.
func draw(r *rand.Rand, n int, metric string, mean, sd float64) []run {
	out := make([]run, n)
	for i := range out {
		out[i] = run{workload: "w", seed: fmt.Sprint(i + 1), trace: "0", correct: true, attempted: 1,
			metrics: map[string]float64{metric: mean * (1 + sd*r.NormFloat64())}}
	}
	return out
}

// rate judges trials synthetic comparisons and returns the share that
// got the verdict.
func rate(t *testing.T, m metricDef, shift, sd float64, verdict string) float64 {
	t.Helper()
	r := rand.New(rand.NewPCG(math.Float64bits(shift), math.Float64bits(sd)))
	const trials = 200
	hits := 0
	for i := 0; i < trials; i++ {
		base := draw(r, 10, m.Name, 1000, sd)
		change := draw(r, 10, m.Name, 1000*(1+shift), sd)
		if judge(base, change, m).verdict == verdict {
			hits++
		}
	}
	return float64(hits) / trials
}

func TestTenPercentShiftIsFlagged(t *testing.T) {
	for _, m := range []metricDef{
		{Name: "replicas_per_s", Better: "higher", Bound: 0.05},
		{Name: "job_p50_s", Better: "lower", Bound: 0.05},
	} {
		worse, better := -0.10, 0.10
		if m.Better == "lower" {
			worse, better = 0.10, -0.10
		}
		if got := rate(t, m, worse, 0.02, regressed); got < 0.95 {
			t.Errorf("%s: a 10%% slowdown was called regressed in only %.0f%% of trials", m.Name, 100*got)
		}
		if got := rate(t, m, better, 0.02, improved); got < 0.95 {
			t.Errorf("%s: a 10%% speed-up was called improved in only %.0f%% of trials", m.Name, 100*got)
		}
	}
}

func TestSameDistributionStaysQuiet(t *testing.T) {
	for _, m := range []metricDef{
		{Name: "replicas_per_s", Better: "higher", Bound: 0.05},
		{Name: "job_p50_s", Better: "lower", Bound: 0.05},
	} {
		// Quiet means neither flag: "no worse", or "unresolved" where a
		// draw's quartile spread happens to exceed the bound.
		if got := rate(t, m, 0, 0.02, improved); got > 0.02 {
			t.Errorf("%s: two draws from one distribution were called improved in %.1f%% of trials", m.Name, 100*got)
		}
		if got := rate(t, m, 0, 0.02, regressed); got > 0 {
			t.Errorf("%s: two draws from one distribution were called regressed in %.1f%% of trials", m.Name, 100*got)
		}
	}
}

// TestRealBounds runs the same two checks with every end-to-end metric
// and bound of the repository's BENCHMARK.json, at noise well inside
// the bound as the benchmark requires of itself.
func TestRealBounds(t *testing.T) {
	def, err := loadBench("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range def.EndToEnd {
		sd := m.Bound / 8
		better := 0.10
		if m.Better == "lower" {
			better = -0.10
		}
		if got := rate(t, m, better, sd, improved); got < 0.95 {
			t.Errorf("%s: a 10%% gain was called improved in only %.0f%% of trials", m.Name, 100*got)
		}
		if got := rate(t, m, -2*m.Bound*sign(better), sd, regressed); got < 0.95 {
			t.Errorf("%s: a loss of twice the bound was called regressed in only %.0f%% of trials", m.Name, 100*got)
		}
		if got := rate(t, m, 0, sd, regressed); got > 0 {
			t.Errorf("%s: two draws from one distribution were called regressed in %.1f%% of trials", m.Name, 100*got)
		}
	}
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

func TestWideSpreadIsUnresolved(t *testing.T) {
	m := metricDef{Name: "replicas_per_s", Better: "higher", Bound: 0.05}
	if got := rate(t, m, -0.06, 0.10, unresolved); got < 0.5 {
		t.Errorf("a shift inside noise twice the bound was unresolved in only %.0f%% of trials", 100*got)
	}
}

const sampleRun = `# perfbench workload=office_service seed=3 trace=1 seconds=20
metric channel.tx 179560 count
{"correct":true,"attempted":70,"failed":0,"metrics":{"channel.tx":{"value":179560,"unit":"count"},"simd.result_hit_frac":{"value":0.3333333333333333,"unit":"frac"}}}
`

func TestParseRunAndDrift(t *testing.T) {
	b, err := parseRun("base", strings.NewReader(sampleRun))
	if err != nil {
		t.Fatal(err)
	}
	if b.workload != "office_service" || b.seed != "3" || b.trace != "1" || b.attempted != 70 || b.metrics["channel.tx"] != 179560 {
		t.Fatalf("parsed %+v", b)
	}
	c, err := parseRun("change", strings.NewReader(strings.ReplaceAll(sampleRun, "179560", "179561")))
	if err != nil {
		t.Fatal(err)
	}
	if d := drift([]run{b}, []run{b}); len(d) != 0 {
		t.Errorf("identical counts reported as drift: %v", d)
	}
	if d := drift([]run{b}, []run{c}); len(d) != 1 || !strings.Contains(d[0], "channel.tx") {
		t.Errorf("drift = %v, want one channel.tx entry", d)
	}
	var out bytes.Buffer
	if !report(&out, benchDef{}, []run{b}, []run{c}) || !strings.Contains(out.String(), "simulation changed") {
		t.Errorf("report did not block on a drifted count:\n%s", out.String())
	}
}

// TestByKindIsJudged checks that a per-kind figure is parsed from its
// by_kind line and judged with the bound of the end-to-end metric its
// name ends in: a slowdown confined to one job kind blocks, while the
// blended figure and the other kinds stay quiet.
func TestByKindIsJudged(t *testing.T) {
	const runText = `# perfbench workload=office_service seed=%d trace=0 seconds=30
by_kind office.fork.job_p50_s %g s
by_kind office.repeat.job_p50_s %g s
{"correct":true,"attempted":100,"failed":0,"metrics":{"job_p50_s":{"value":%g,"unit":"s"}}}
`
	def := benchDef{EndToEnd: []metricDef{{Name: "job_p50_s", Unit: "s", Better: "lower", Bound: 0.25}}}
	r := rand.New(rand.NewPCG(1, 2))
	noise := func(x float64) float64 { return x * (1 + 0.01*r.NormFloat64()) }
	var base, change []run
	for s := 1; s <= 10; s++ {
		for _, side := range []struct {
			runs *[]run
			fork float64
		}{{&base, 1.0}, {&change, 1.6}} {
			text := fmt.Sprintf(runText, s, noise(side.fork), noise(0.01), noise(0.5))
			rn, err := parseRun("run", strings.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			*side.runs = append(*side.runs, rn)
		}
	}
	if got := base[0].metrics["office.repeat.job_p50_s"]; got == 0 {
		t.Fatalf("by_kind line not parsed: %+v", base[0])
	}
	var out bytes.Buffer
	if !report(&out, def, base, change) {
		t.Errorf("a 60%% slowdown of one job kind did not block:\n%s", out.String())
	}
	verdicts := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "office_service" {
			verdicts[f[1]] = strings.TrimSpace(line[strings.LastIndex(line, "  "):])
		}
	}
	for name, want := range map[string]string{
		"job_p50_s": noWorse, "office.fork.job_p50_s": regressed, "office.repeat.job_p50_s": noWorse,
	} {
		if verdicts[name] != want {
			t.Errorf("%s: verdict %q, want %q\n%s", name, verdicts[name], want, out.String())
		}
	}
}
