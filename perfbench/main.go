// Command perfbench is the repository's end-to-end benchmark. One
// process runs one workload closed-loop for a fixed wall-clock window,
// checks every output it produced, and prints each metric by name and
// unit; the last line of standard output is a JSON summary.
//
//	bash perfbench/run.sh --workload creation --seed 1 --seconds 30 --trace 0
//
// Workloads: creation (paper Figs 6-8 through runner.Sweep), lowpower
// (paper Figs 10-12 as netspec worlds) and office_service (btsimd's HTTP
// engine on loopback with two closed-loop clients). --trace 1 replaces
// the end-to-end metrics with per-layer ones: after an untraced ramp-up
// third it runs a third untraced and a third with spans and a CPU
// profile, and reports the difference as the tracing overhead.
// README.md documents every metric.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// slotSeconds is one Bluetooth slot (625 µs) of simulated time.
const slotSeconds = 625e-6

// setupProbes is how many fresh processes measure setup_s; the median
// of several keeps one slow exec from moving the metric.
const setupProbes = 7

// defaultSeed is the seed whose output digests and exact counts are
// recorded in expected.json.
const defaultSeed = 1

// workload is one benchmark workload. A workload owns its generated
// inputs (all derived from the seed) and every long-lived resource.
type workload interface {
	// warmUp runs one untimed operation; together with construction it
	// is the set-up that setup_s measures.
	warmUp() error
	// loop runs the closed loop until deadline, recording into t.
	// Operations started before the deadline run to completion.
	loop(deadline time.Time, t *tally, tr *tracer)
	// check runs the post-window correctness checks.
	check() error
	// digest returns the hash of the simulated outputs of the run's
	// leading jobs, which every run completes.
	digest() string
	// layers runs the traced run's extra measurements (in-process
	// replays) and adds the per-layer metrics the workload owns.
	layers(m metricSet, tr *tracer) error
	// memory returns peak_rss_mib, the process's peak resident set
	// (VmHWM) in MiB, after a timed window, and prints any memory
	// findings of the workload.
	memory() float64
	close()
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "creation":
		return newCreation(seed), nil
	case "lowpower":
		return newLowpower(seed), nil
	case "office_service":
		return newOffice(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want creation, lowpower or office_service)", name)
}

func main() {
	name := flag.String("workload", "", "workload: creation, lowpower or office_service")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; every input is derived from it")
	seconds := flag.Float64("seconds", 30, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	probe := flag.Bool("setup-probe", false, "internal: set up, report readiness on stdout and exit")
	helper := flag.Bool("pace-helper", false, "internal: run a pace burst for each line on stdin")
	flag.Parse()

	if *helper {
		if err := paceHelper(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *probe {
		if err := setupOnly(*name, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setupOnly is the body of a setup probe: construct the workload, run
// the warm-up operation, announce readiness and tear down.
func setupOnly(name string, seed uint64) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.warmUp(); err != nil {
		return err
	}
	fmt.Println("ready")
	return nil
}

// measureSetup starts setupProbes fresh processes of this binary one
// after another and times each from exec to its readiness line, so
// runtime and package initialisation (PERM5, CRC and whitening tables),
// input preparation, engine and listener start and the warm-up
// operation are all inside the measurement. Each probe is scaled to
// reference seconds by the pace bursts around it (see pace.go). It
// returns the median.
func measureSetup(p *pacer, name string, seed uint64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times, raw []float64
	before, err := p.speed()
	if err != nil {
		return 0, err
	}
	for i := 0; i < setupProbes; i++ {
		d, err := probeOnce(self, name, seed)
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		after, err := p.speed()
		if err != nil {
			return 0, err
		}
		raw = append(raw, d)
		times = append(times, d*(before+after)/2)
		before = after
	}
	fmt.Printf("setup: median %.4f host s = %.4f reference s\n", median(raw), median(times))
	return median(times), nil
}

func probeOnce(self, name string, seed uint64) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--setup-probe", "--workload", name, "--seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0).Seconds()
	werr := cmd.Wait()
	if rerr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("no readiness line (read: %v, exit: %v)", rerr, werr)
	}
	if werr != nil {
		return 0, werr
	}
	return d, nil
}

func run(name string, seed uint64, seconds float64, traced bool) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if _, ok := tailPct[name]; !ok {
		return fmt.Errorf("unknown workload %q (want creation, lowpower or office_service)", name)
	}
	fmt.Printf("# perfbench workload=%s seed=%d trace=%d seconds=%g\n", name, seed, boolBit(traced), seconds)

	var setupS float64
	var p *pacer
	if !traced {
		var err error
		if p, err = startPacer(); err != nil {
			return err
		}
		defer p.close()
		s, err := measureSetup(p, name, seed)
		if err != nil {
			return err
		}
		setupS = s
	}

	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.warmUp(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	var total tally
	var problems []string
	metrics := metricSet{}
	if !traced {
		if err := paced(p, w, name, seconds, &total); err != nil {
			return err
		}
		total.endToEnd(metrics, tailPct[name])
		metrics.add("setup_s", setupS, "s")
		metrics.add("peak_rss_mib", w.memory(), "MiB")
		kinds := metricSet{}
		total.byKind(kinds, kindPrefix, officeClients)
		kinds.print(os.Stdout, "by_kind")
	} else {
		// The window is cut in thirds. The first, untraced, lets the
		// process ramp up (the service's throughput climbs over its first
		// seconds as its heap and caches grow), so that it does not count
		// against either side of the overhead comparison.
		w.loop(time.Now().Add(seconds2d(seconds/3)), &total, nil)

		// Untraced: the gc.* and window metrics, and the overhead base.
		var a tally
		gc0 := readGC()
		w.loop(time.Now().Add(seconds2d(seconds/3)), &a, nil)
		a.layerMetrics(metrics, gc0, readGC())
		a.byKind(metrics, kindPrefix, officeClients)
		untraced := metricSet{}
		a.endToEnd(untraced, tailPct[name])
		total.merge(&a)

		// Traced: spans around every public call plus a CPU profile.
		tr := newTracer()
		prof, err := startProfile(name, seed)
		if err != nil {
			return err
		}
		var b tally
		w.loop(time.Now().Add(seconds2d(seconds/3)), &b, tr)
		shares, perr := prof.stop()
		traced := metricSet{}
		b.endToEnd(traced, tailPct[name])
		total.merge(&b)

		if err := w.layers(metrics, tr); err != nil {
			problems = append(problems, "per-layer replay: "+err.Error())
			total.failed = total.attempted
		}
		addShares(metrics, shares, perr)
		overhead(metrics, untraced, traced)
		if err := tr.write(name, seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
		tr.summary(os.Stdout)
		markUnavailable(metrics, name)
		printCounts(name, metrics)
	}

	if err := w.check(); err != nil {
		problems = append(problems, err.Error())
		total.failed = total.attempted
	}
	dg := w.digest()
	fmt.Printf("digest %s %s\n", name, dg)
	if seed == defaultSeed {
		if err := checkExpected(name, dg); err != nil {
			problems = append(problems, err.Error())
			total.failed = total.attempted
		}
	}
	if traced && seed == defaultSeed {
		for _, e := range checkExpectedCounts(name, metrics) {
			problems = append(problems, "simulation changed: "+e)
		}
	}
	problems = append(total.problems, problems...)
	for _, p := range problems {
		fmt.Println("problem:", p)
	}
	metrics.print(os.Stdout, "metric")

	if total.attempted == 0 {
		total.attempted = 1
		total.failed = 1
		problems = append(problems, "no operation completed")
	}
	if total.failed > total.attempted {
		total.failed = total.attempted
	}
	fmt.Printf("failed_frac %.6g (failed %d of %d attempted)\n", float64(total.failed)/float64(total.attempted), total.failed, total.attempted)
	return printResult(len(problems) == 0 && total.failed == 0, total.attempted, total.failed, metrics)
}

func seconds2d(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// segmentSeconds is each workload's segment length between two pace
// bursts. Shorter segments follow the host's speed more closely (it
// swings within seconds); office_service's are longer because each
// segment ends by letting both clients' jobs finish, and that drain
// leaves one client idle.
var segmentSeconds = map[string]float64{"creation": 1, "lowpower": 1, "office_service": 2}

// paced runs the timed window as segments with a pace burst before and
// after each, and adds each segment to total at the mean speed of its
// two bursts (see pace.go). The window ends at its nominal length; a
// segment's operations started before its end run to completion.
func paced(p *pacer, w workload, name string, seconds float64, total *tally) error {
	n := max(1, int(math.Round(seconds/segmentSeconds[name])))
	start := time.Now()
	before, err := p.speed()
	if err != nil {
		return err
	}
	for i := 1; i <= n; i++ {
		var seg tally
		w.loop(start.Add(seconds2d(seconds*float64(i)/float64(n))), &seg, nil)
		after, err := p.speed()
		if err != nil {
			return err
		}
		speed := (before + after) / 2
		total.absorb(&seg, speed)
		fmt.Printf("segment %3d wall %.3f s jobs %3d speed %.4f\n", i, seg.wall(), len(seg.jobs), speed)
		before = after
	}
	fmt.Printf("window: %.3f host s = %.3f reference s (mean speed %.4f)\n",
		total.rawWall, total.refWall, total.refWall/total.rawWall)
	return nil
}

// tailPct is each workload's job_tail_s percentile: the highest standard
// percentile with at least ten of a 30 s run's jobs beyond it. It is
// fixed per workload, not chosen per run, so that a faster change is
// not scored at a different percentile than its parent.
var tailPct = map[string]float64{"creation": 95, "lowpower": 75, "office_service": 90}

// perLayer lists every per-layer metric with its unit. A traced run
// reports each one; a layer the workload does not exercise reads 0 and
// is listed as unavailable in the text output.
var perLayer = [][2]string{
	{"runner.busy_frac", "frac"}, {"core.construct_us", "us"}, {"core.host_ms_per_sim_s", "ms/s"},
	{"sim.cpu_share", "frac"}, {"hop.cpu_share", "frac"}, {"access.cpu_share", "frac"},
	{"baseband.cpu_share", "frac"}, {"power.cpu_share", "frac"}, {"channel.cpu_share", "frac"},
	{"packet.cpu_share", "frac"}, {"coding.cpu_share", "frac"}, {"bits.cpu_share", "frac"},
	{"netspec.cpu_share", "frac"}, {"runtime.cpu_share", "frac"},
	{"channel.tx", "count"}, {"channel.collision_frac", "frac"}, {"channel.host_ns_per_tx", "ns"},
	{"baseband.retransmit_frac", "frac"},
	{"netspec.build_ms", "ms"}, {"netspec.build_allocs", "count"}, {"netspec.heap_bytes_per_device", "bytes"},
	{"netspec.ckpt_snapshot_ms", "ms"}, {"netspec.ckpt_bytes", "bytes"}, {"netspec.ckpt_encode_ms", "ms"},
	{"netspec.ckpt_decode_ms", "ms"}, {"netspec.ckpt_restore_ms", "ms"},
	{"simd.queue_wait_ms", "ms"}, {"simd.exec_ms", "ms"}, {"simd.overhead_ms", "ms"},
	{"simd.result_hit_frac", "frac"}, {"simd.ckpt_hit_frac", "frac"}, {"simd.response_bytes", "bytes"},
	{"gc.cpu_frac", "frac"}, {"gc.allocs_per_replica", "count"}, {"trace.overhead_frac", "frac"},
	{"office.straight.job_p50_s", "s"}, {"office.straight.jobs_per_s", "1/s"},
	{"office.fork.job_p50_s", "s"}, {"office.fork.jobs_per_s", "1/s"},
	{"office.fork_shared.job_p50_s", "s"}, {"office.fork_shared.jobs_per_s", "1/s"},
	{"office.repeat.job_p50_s", "s"}, {"office.repeat.jobs_per_s", "1/s"},
}

// markUnavailable adds a 0 for every per-layer metric the workload did
// not measure and says so.
func markUnavailable(m metricSet, workload string) {
	var missing []string
	for _, p := range perLayer {
		if _, ok := m[p[0]]; !ok {
			m.add(p[0], 0, p[1])
			missing = append(missing, p[0])
		}
	}
	if len(missing) > 0 {
		fmt.Printf("unavailable on %s (reported as 0): %s\n", workload, strings.Join(missing, " "))
	}
}

// printCounts prints the exact counts in the form expected.json keeps.
func printCounts(workload string, m metricSet) {
	c := map[string]float64{}
	for _, k := range exactCounts {
		c[k] = m[k].Value
	}
	b, _ := json.Marshal(c) // a map of finite floats always marshals
	fmt.Printf("counts %s %s\n", workload, b)
}

// metricSet maps a metric name to its value and unit.
type metricSet map[string]metricValue

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) add(name string, v float64, unit string) { m[name] = metricValue{v, unit} }

// print writes one "<tag> <name> <value> <unit>" line per metric.
func (m metricSet) print(f *os.File, tag string) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(f, "%s %-28s %14.6g %s\n", tag, k, m[k].Value, m[k].Unit)
	}
}

func printResult(correct bool, attempted, failed int, m metricSet) error {
	out, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{correct, attempted, failed, m})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// outDir is where the traced run writes spans and profiles.
func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return filepath.Join(".bench_build", "trace")
}
