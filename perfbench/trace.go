package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one traced call into a layer: its name, the operation it
// belongs to (a replica or a job), the span that caused it, and its
// interval in nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; later spans are counted but
// dropped.
const maxSpans = 1 << 20

// tracer records spans in memory. A nil *tracer records nothing, which
// is how untraced windows run.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name, op string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write saves the spans as JSON lines under outDir.
func (t *tracer) write(workload string, seed uint64) error {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s (%d dropped)\n", len(t.spans), path, t.dropped)
	return nil
}

// summary prints, per span name, the count, the total time and the
// self time: each span's duration minus the time its child spans
// cover.
func (t *tracer) summary(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type agg struct {
		n           int
		total, self int64
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		d := s.End - s.Start
		a.n++
		a.total += d
		a.self += max(0, d-child[s.ID])
	}
	names := make([]string, 0, len(by))
	for k := range by {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "span %-18s %8s %12s %12s %12s\n", "name", "count", "total_ms", "self_ms", "mean_us")
	for _, k := range names {
		a := by[k]
		fmt.Fprintf(w, "span %-18s %8d %12.3f %12.3f %12.3f\n", k, a.n,
			float64(a.total)/1e6, float64(a.self)/1e6, float64(a.total)/float64(a.n)/1e3)
	}
}

// profile is a running runtime/pprof CPU profile.
type profile struct {
	path string
	f    *os.File
}

func startProfile(workload string, seed uint64) (*profile, error) {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.cpu.pprof", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{path: path, f: f}, nil
}

// stop ends the profile and folds it into CPU shares per package.
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	fmt.Printf("cpu profile: %s\n", p.path)
	return foldProfile(p.path)
}

// foldProfile runs `go tool pprof -top` on the profile and sums the
// flat time of every function by package: repro/internal/<pkg> folds to
// <pkg>, the Go runtime (GC, scheduler, allocator) to "runtime", and
// everything else (net/http, encoding/json, ...) to "other".
func foldProfile(path string) (map[string]float64, error) {
	var out bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", path)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(&out)
}

// topLine matches one `pprof -top` row: flat, flat%, sum%, cum, cum%,
// function.
var topLine = regexp.MustCompile(`^\s*([0-9.]+)(ns|us|µs|ms|s|m|h)?\s+[0-9.]+%\s+[0-9.]+%\s+[0-9.]+(?:ns|us|µs|ms|s|m|h)?\s+[0-9.]+%\s+(.+)$`)

var unitSeconds = map[string]float64{"": 1, "ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1, "m": 60, "h": 3600}

func foldTop(r io.Reader) (map[string]float64, error) {
	by := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := topLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			continue
		}
		v *= unitSeconds[m[2]]
		by[pkgOf(m[3])] += v
		total += v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("empty CPU profile")
	}
	for k := range by {
		by[k] /= total
	}
	return by, nil
}

// pkgOf maps a profiled function name to its layer.
func pkgOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "repro/perfbench") || strings.HasPrefix(fn, "main.") {
		return "perfbench"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal") || strings.HasPrefix(fn, "internal/runtime") {
		return "runtime"
	}
	return "other"
}

// sharePackages are the layers whose CPU share is a per-layer metric.
var sharePackages = []string{"sim", "hop", "access", "baseband", "power", "channel", "packet", "coding", "bits", "netspec", "runtime"}

// addShares adds the <pkg>.cpu_share metrics and prints the whole
// per-package table.
func addShares(m metricSet, shares map[string]float64, err error) {
	if err != nil {
		fmt.Println("cpu_share unavailable:", err)
	}
	for _, p := range sharePackages {
		m.add(p+".cpu_share", shares[p], "frac")
	}
	type row struct {
		pkg   string
		share float64
	}
	var rows []row
	for k, v := range shares {
		rows = append(rows, row{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].share > rows[j].share })
	for _, r := range rows {
		fmt.Printf("cpu_share %-12s %6.2f%%\n", r.pkg, 100*r.share)
	}
}

// overhead reports the traced third's end-to-end metrics against the
// untraced third's, and adds the throughput loss as a per-layer metric.
func overhead(m metricSet, untraced, traced metricSet) {
	names := make([]string, 0, len(untraced))
	for k := range untraced {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a, b := untraced[k].Value, traced[k].Value
		d := 0.0
		if a != 0 {
			d = (b - a) / a
		}
		fmt.Printf("trace_overhead %-16s untraced %12.6g traced %12.6g change %+7.2f%%\n", k, a, b, 100*d)
	}
	loss := 0.0
	if a := untraced["replicas_per_s"].Value; a > 0 {
		loss = 1 - traced["replicas_per_s"].Value/a
	}
	m.add("trace.overhead_frac", loss, "frac")
}
