package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tally accumulates one timed window. Workload goroutines record into
// it concurrently, so every method locks.
type tally struct {
	mu sync.Mutex

	start, last time.Time
	// attempted and failed count operations: replicas on creation and
	// lowpower, jobs on office_service.
	attempted, failed int
	// replicas counts replicas really simulated (office cache hits are
	// not); simSlots sums their simulated slots.
	replicas int
	simSlots uint64
	// jobs holds each job's latency in seconds; kinds splits them by
	// job kind where a workload has several (office_service).
	jobs     []float64
	kinds    map[string][]float64
	problems []string
	// refWall and rawWall, when the window was run paced, are the sums
	// of its segments' lengths in reference and in host seconds.
	refWall, rawWall float64

	// Per-layer accumulators; each workload fills the ones it has.
	workers     int           // runner pool size (busy_frac denominator)
	busy        time.Duration // summed trial time
	constructUS []float64     // NewSimulation + AddDevice per replica
	kernel      time.Duration // host time inside RunSlots / RunCreation
	kernelSlots uint64        // simulated slots advanced inside it
	queueWaitMS []float64     // POST to the "running" frame
	execMS      []float64     // "running" frame to the terminal frame
	respBytes   []float64     // GET /v1/jobs/{id} body sizes
}

// begin marks the window's start; loops call it once.
func (t *tally) begin() {
	t.mu.Lock()
	t.start = time.Now()
	t.last = t.start
	t.mu.Unlock()
}

// job records one completed job: its latency, the operations it
// comprised and how many of them failed, and the simulated work done.
func (t *tally) job(lat time.Duration, ops, failed, replicas int, slots uint64, problem string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	if now.After(t.last) {
		t.last = now
	}
	t.jobs = append(t.jobs, lat.Seconds())
	t.attempted += ops
	t.failed += failed
	t.replicas += replicas
	t.simSlots += slots
	if problem != "" && len(t.problems) < 8 {
		t.problems = append(t.problems, problem)
	}
}

// kindJob records a job's latency under its kind; job must record the
// job too.
func (t *tally) kindJob(kind string, lat time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.kinds == nil {
		t.kinds = map[string][]float64{}
	}
	t.kinds[kind] = append(t.kinds[kind], lat.Seconds())
}

// byKind adds, for every job kind, the kind's median latency and its
// service rate: clients × jobs ÷ the jobs' summed latency, the rate
// the closed-loop clients would reach on that kind alone. In a closed
// loop the count of each kind follows the plan, so the rate, not the
// count, shows which kind a change sped up.
func (t *tally) byKind(m metricSet, prefix string, clients int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for kind, lats := range t.kinds {
		sum := 0.0
		for _, l := range lats {
			sum += l
		}
		rate := 0.0
		if sum > 0 {
			rate = float64(clients*len(lats)) / sum
		}
		m.add(prefix+kind+".job_p50_s", median(lats), "s")
		m.add(prefix+kind+".jobs_per_s", rate, "1/s")
	}
}

// wall is the window's length in host seconds: the sum of its segments
// when it was run paced, without the pace bursts between them.
func (t *tally) wall() float64 {
	if t.rawWall > 0 {
		return t.rawWall
	}
	return t.last.Sub(t.start).Seconds()
}

// absorb adds segment s, run at the given host speed (see pace.go), to
// the window t: its operation counts as they are, its wall time both raw
// and scaled to reference seconds, and its job latencies scaled. Paced
// windows report end-to-end metrics only, so the per-layer accumulators
// are not carried over.
func (t *tally) absorb(s *tally, speed float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := s.wall()
	t.rawWall += w
	t.refWall += w * speed
	t.attempted += s.attempted
	t.failed += s.failed
	t.replicas += s.replicas
	t.simSlots += s.simSlots
	for _, l := range s.jobs {
		t.jobs = append(t.jobs, l*speed)
	}
	for kind, lats := range s.kinds {
		if t.kinds == nil {
			t.kinds = map[string][]float64{}
		}
		for _, l := range lats {
			t.kinds[kind] = append(t.kinds[kind], l*speed)
		}
	}
	if room := 8 - len(t.problems); room > 0 {
		t.problems = append(t.problems, s.problems[:min(room, len(s.problems))]...)
	}
}

// endToEnd adds the window's end-to-end metrics; tailPct is the
// workload's fixed tail percentile.
func (t *tally) endToEnd(m metricSet, tailPct float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.wall()
	if t.refWall > 0 {
		w = t.refWall
	}
	if w <= 0 {
		w = math.SmallestNonzeroFloat64
	}
	m.add("replicas_per_s", float64(t.replicas)/w, "1/s")
	m.add("sim_s_per_s", float64(t.simSlots)*slotSeconds/w, "s/s")
	m.add("jobs_per_s", float64(len(t.jobs))/w, "1/s")
	m.add("job_p50_s", percentile(t.jobs, 50), "s")
	m.add("job_tail_s", percentile(t.jobs, tailPct), "s")
	beyond := int(float64(len(t.jobs)) * (1 - tailPct/100))
	note := ""
	if beyond < 10 {
		note = " (fewer than 10 samples beyond: the tail is under-sampled)"
	}
	fmt.Printf("job_tail_s is p%g of %d jobs, %d beyond it%s\n", tailPct, len(t.jobs), beyond, note)
}

// layerMetrics adds the per-layer metrics the window itself measured;
// gc0 and gc1 are the runtime counters at its start and end.
func (t *tally) layerMetrics(m metricSet, gc0, gc1 gcSample) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.wall()
	if t.workers > 0 && w > 0 {
		m.add("runner.busy_frac", t.busy.Seconds()/(float64(t.workers)*w), "frac")
	}
	if len(t.constructUS) > 0 {
		m.add("core.construct_us", median(t.constructUS), "us")
	}
	if t.kernelSlots > 0 {
		m.add("core.host_ms_per_sim_s", t.kernel.Seconds()*1000/(float64(t.kernelSlots)*slotSeconds), "ms/s")
	}
	if len(t.queueWaitMS) > 0 {
		m.add("simd.queue_wait_ms", median(t.queueWaitMS), "ms")
	}
	if len(t.execMS) > 0 {
		m.add("simd.exec_ms", median(t.execMS), "ms")
	}
	if len(t.respBytes) > 0 {
		m.add("simd.response_bytes", median(t.respBytes), "bytes")
	}
	cpu := gc1.totalCPU - gc0.totalCPU
	gcFrac := 0.0
	if cpu > 0 {
		gcFrac = (gc1.gcCPU - gc0.gcCPU) / cpu
	}
	m.add("gc.cpu_frac", gcFrac, "frac")
	perRep := 0.0
	if t.replicas > 0 {
		perRep = float64(gc1.allocs-gc0.allocs) / float64(t.replicas)
	}
	m.add("gc.allocs_per_replica", perRep, "count")
}

// merge folds o's operation counts into t (used to total the two
// halves of a traced run).
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.problems = append(t.problems, o.problems...)
}

// gcSample is a reading of the runtime's cumulative CPU and allocation
// counters.
type gcSample struct {
	gcCPU, totalCPU float64
	allocs          uint64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// percentile is the linearly interpolated p-th percentile (0 for an
// empty sample).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }
