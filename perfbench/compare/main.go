// Command compare judges a change against its parent from two sets of
// perfbench runs. Each run is the captured standard output of one
// `perfbench/run.sh` invocation: its first line names the workload,
// seed and mode, its last line is the JSON summary.
//
//	cd perfbench && go run ./compare -base '../runs/base/*.out' -change '../runs/change/*.out'
//
// For every workload and end-to-end metric it prints one row: each
// side's median and quartiles, the share of seed-matched pairs the
// change wins, and a verdict (improved, no worse, unresolved or
// regressed) under the bounds in BENCHMARK.json. The per-kind figures
// a run prints on "by_kind" lines (office_service's job kinds) get rows
// of their own, judged with the bound of the end-to-end metric their
// name ends in, so a change that helps one kind is judged on the jobs
// it touches. Traced runs of the
// same seed must repeat the exact per-layer counts; any difference is
// reported as "simulation changed", apart from timing noise. The exit
// status is 1 when a metric regressed, a count drifted or the change
// failed more operations than its parent.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	base := flag.String("base", "", "glob of the parent's run outputs")
	change := flag.String("change", "", "glob of the change's run outputs")
	bench := flag.String("bench", "../BENCHMARK.json", "benchmark definition with the metric bounds")
	flag.Parse()
	if *base == "" || *change == "" {
		fmt.Fprintln(os.Stderr, "usage: compare -base GLOB -change GLOB [-bench BENCHMARK.json]")
		os.Exit(2)
	}
	def, err := loadBench(*bench)
	if err == nil {
		var b, c []run
		if b, err = loadRuns(*base); err == nil {
			if c, err = loadRuns(*change); err == nil {
				if report(os.Stdout, def, b, c) {
					os.Exit(1)
				}
				return
			}
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

func loadBench(path string) (benchDef, error) {
	var d benchDef
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// run is one benchmark run's identity and summary.
type run struct {
	file      string
	workload  string
	seed      string
	trace     string
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	// byKind names the metrics read from "by_kind" lines.
	byKind []string
}

func loadRuns(glob string) ([]run, error) {
	files, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no files match %q", glob)
	}
	var runs []run
	for _, f := range files {
		r, err := loadRun(f)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func loadRun(path string) (run, error) {
	f, err := os.Open(path)
	if err != nil {
		return run{}, err
	}
	defer f.Close()
	return parseRun(path, f)
}

// parseRun reads a run's header line and its last line.
func parseRun(name string, r io.Reader) (run, error) {
	rn := run{file: name, metrics: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var last string
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# perfbench "); ok && rn.workload == "" {
			for _, kv := range strings.Fields(rest) {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "workload":
					rn.workload = v
				case "seed":
					rn.seed = v
				case "trace":
					rn.trace = v
				}
			}
		}
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "by_kind" {
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return rn, fmt.Errorf("%s: %q: %w", name, line, err)
			}
			rn.metrics[f[1]] = v
			rn.byKind = append(rn.byKind, f[1])
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return rn, fmt.Errorf("%s: %w", name, err)
	}
	if rn.workload == "" {
		return rn, fmt.Errorf("%s: no '# perfbench' header line", name)
	}
	var sum struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &sum); err != nil {
		return rn, fmt.Errorf("%s: last line is not the JSON summary: %w", name, err)
	}
	rn.correct, rn.attempted, rn.failed = sum.Correct, sum.Attempted, sum.Failed
	for k, v := range sum.Metrics {
		rn.metrics[k] = v.Value
	}
	return rn, nil
}

// exactCounts are the per-layer metrics that are pure functions of the
// seed (kept in step with the benchmark's own list).
var exactCounts = []string{"channel.tx", "channel.collision_frac", "baseband.retransmit_frac", "netspec.ckpt_bytes", "simd.result_hit_frac"}

// report prints the comparison and says whether anything must block.
func report(w io.Writer, def benchDef, base, change []run) (bad bool) {
	workloads := map[string]bool{}
	for _, r := range append(append([]run(nil), base...), change...) {
		workloads[r.workload] = true
	}
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-15s %-28s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "base_med", "base_q1..q3", "change_med", "change_q1..q3", "delta", "wins", "verdict")
	for _, wl := range names {
		b := pick(base, wl, "0")
		c := pick(change, wl, "0")
		if len(b) > 0 && len(c) > 0 {
			for _, m := range append(append([]metricDef(nil), def.EndToEnd...), kindDefs(def, b, c)...) {
				r := judge(b, c, m)
				fmt.Fprintf(w, "%-15s %-28s %12.5g %25s %12.5g %25s %+7.2f%% %6s  %s\n",
					wl, m.Name, r.baseMed, span(r.baseQ), r.changeMed, span(r.changeQ),
					100*r.delta, fmt.Sprintf("%d/%d", r.wins, r.pairs), r.verdict)
				if r.verdict == regressed {
					bad = true
				}
			}
		} else {
			fmt.Fprintf(w, "%-15s (no untraced runs on both sides)\n", wl)
		}
		bf, ba := failures(pick(base, wl, ""))
		cf, ca := failures(pick(change, wl, ""))
		if ratioOf(cf, ca) > ratioOf(bf, ba) {
			fmt.Fprintf(w, "%-15s failed operations: base %d of %d, change %d of %d: regressed\n", wl, bf, ba, cf, ca)
			bad = true
		}
		for _, d := range drift(pick(base, wl, "1"), pick(change, wl, "1")) {
			fmt.Fprintf(w, "%-15s simulation changed: %s\n", wl, d)
			bad = true
		}
	}
	return bad
}

// kindDefs defines a metric for every by_kind figure either side
// reported: it takes the direction and bound of the end-to-end metric
// its name ends in (office.fork.job_p50_s is judged as job_p50_s).
func kindDefs(def benchDef, sides ...[]run) []metricDef {
	seen := map[string]bool{}
	var out []metricDef
	for _, runs := range sides {
		for _, r := range runs {
			for _, name := range r.byKind {
				if seen[name] {
					continue
				}
				seen[name] = true
				for _, m := range def.EndToEnd {
					if strings.HasSuffix(name, "."+m.Name) {
						out = append(out, metricDef{Name: name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
						break
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func span(q [3]float64) string { return fmt.Sprintf("%.5g..%.5g", q[0], q[2]) }

func pick(runs []run, workload, trace string) []run {
	var out []run
	for _, r := range runs {
		if r.workload == workload && (trace == "" || r.trace == trace) {
			out = append(out, r)
		}
	}
	return out
}

func failures(runs []run) (failed, attempted int) {
	for _, r := range runs {
		failed += r.failed
		attempted += r.attempted
		if !r.correct && r.failed == 0 {
			failed++ // an incorrect run with no failed operation still counts once
		}
	}
	return failed, attempted
}

func ratioOf(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// drift lists every exact count that differs between traced runs of the
// same seed.
func drift(base, change []run) []string {
	var out []string
	for _, b := range base {
		for _, c := range change {
			if b.seed != c.seed {
				continue
			}
			for _, k := range exactCounts {
				bv, bok := b.metrics[k]
				cv, cok := c.metrics[k]
				if bok != cok || bv != cv {
					out = append(out, fmt.Sprintf("seed %s %s: base %v, change %v", b.seed, k, bv, cv))
				}
			}
		}
	}
	return out
}
