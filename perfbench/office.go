package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netspec"
	"repro/internal/runner"
	"repro/internal/simd"
)

// The office_service workload is btsimd over HTTP: the real
// simd.Engine handler on a loopback listener, with engine options equal
// to cmd/btsimd's flag defaults, and officeClients closed-loop clients
// that each wait for their job's terminal frame before submitting the
// next. Every client repeats officePlan with fresh seeds each cycle:
//
//   - straight campaigns on a spatial bulk floor of tens of piconets
//     (experiments.DensitySpec): spatial delivery, collisions, packet
//     assembly and parse, FEC, CRC and ARQ;
//   - forked settle-heavy campaigns on a poisson floor that quiesces
//     (the shape of examples/specs/office-poisson.json), in pairs that
//     share the settle seed, so the checkpoint cache misses then hits;
//   - verbatim repeats, answered from the result cache.
//
// Large netspec.Builds, checkpoint encode/decode/restore and the
// service's queueing, caching and JSON run here and nowhere else.
//
// The mix is synthetic: no record of btsimd's real traffic exists, so
// the plan's shares (3 straight : 1 fork : 1 checkpoint-sharing fork :
// 1 repeat, a result-cache hit share of 1/6 and a checkpoint-cache hit
// share of 1/2) were chosen, not measured. They scale how far a cache,
// checkpoint or codec change moves the blended jobs_per_s and
// job_p50_s, so every run also reports each kind's latency and service
// rate (by_kind lines; office.<kind>.* in a traced run).

const (
	officeClients          = 2
	officeDensityPiconets  = 20
	officeStraightReplicas = 2
	officeStraightSettle   = 100
	officeStraightSlots    = 1000
	officeForkReplicas     = 3
	officeForkSettle       = 16000
	// officeForkGap is the poisson mean gap in slots. At the example
	// spec's 40 the floor finds no quiescent edge to snapshot on about
	// one seed in fifty; at 80 none of a hundred seeds failed.
	officeForkGap   = 80
	officeForkSlots = 1500
	// The checkpoint-sharing job skips the settle, so it runs more and
	// longer forks. It is still quicker than the other misses, so with
	// the one repeat a third of the plan is quick, and the latency
	// median lies inside the slow two thirds, not on the edge between.
	officeForkSharedReplicas = 6
	officeForkSharedSlots    = 2000
	// officeMemCycles is how many plan cycles each client completes
	// before peak_rss_mib is read. The engine keeps every job it served,
	// so its memory grows with the jobs served; reading the peak after a
	// fixed number of jobs, not at the end of a fixed time, keeps a
	// faster change from reading as a memory regression.
	officeMemCycles = 2
)

// kindPrefix starts the names of the per-kind figures.
const kindPrefix = "office."

type jobKind int

const (
	kindStraight   jobKind = iota
	kindFork               // settles and stores a checkpoint
	kindForkShared         // same settle as the cycle's kindFork: a checkpoint-cache hit
	kindRepeat             // verbatim resubmission: a result-cache hit
)

var kindNames = [...]string{"straight", "fork", "fork_shared", "repeat"}

// officePlan is one client's cycle. Repeats point at the plan entry
// they resubmit, which the same client has already completed, so
// whether a job hits a cache is fixed by the plan, not by timing.
var officePlan = []struct {
	kind     jobKind
	repeatOf int
}{
	{kind: kindStraight},
	{kind: kindFork},
	{kind: kindForkShared},
	{kind: kindRepeat, repeatOf: 0},
	{kind: kindStraight},
	{kind: kindStraight},
}

// officeMemJobs is the timed job count at which peak_rss_mib is read.
var officeMemJobs = officeMemCycles * officeClients * len(officePlan)

func poissonFloor() netspec.Spec {
	return netspec.Spec{
		Piconets:  netspec.HomogeneousPiconets(4, 1),
		Traffic:   []netspec.Traffic{netspec.PoissonTraffic(netspec.AllPiconets, netspec.WithMeanGap(officeForkGap), netspec.WithBurstBytes(256))},
		Placement: netspec.GridPlacement(experiments.DensityRangeM, experiments.DensitySpacingM).WithInterference(experiments.DensityInterferenceM),
	}
}

// officeJob is one served job as the client saw it.
type officeJob struct {
	client, index int
	kind          jobKind
	req           simd.Request
	state         simd.State
	cached        bool
	result        []byte // compact JSON of the result
	respBytes     int
	post, running time.Time
	terminal      time.Time
	err           string
}

// service is a simd.Engine, with cmd/btsimd's flag defaults, served on
// a loopback listener.
type service struct {
	engine *simd.Engine
	srv    *http.Server
	served chan error
	url    string
}

func startService() (*service, error) {
	v := &service{
		engine: simd.New(simd.Options{
			MaxJobs:             2,
			QueueDepth:          16,
			CacheSize:           64,
			CheckpointCacheSize: 16,
			Workers:             0,
			SnapshotSlots:       2000,
		}),
		served: make(chan error, 1),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		v.engine.Close()
		return nil, err
	}
	v.url = "http://" + ln.Addr().String()
	v.srv = &http.Server{Handler: v.engine.Handler()}
	go func() { v.served <- v.srv.Serve(ln) }()
	return v, nil
}

func (v *service) close() {
	v.engine.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v.srv.Shutdown(ctx)
	<-v.served
}

type office struct {
	seed    uint64
	svc     *service
	clients [officeClients]*http.Client

	mu   sync.Mutex
	pos  [officeClients]int          // next job index per client
	cur  [officeClients][][]byte     // this cycle's results per plan entry
	zero [officeClients][]*officeJob // first-cycle jobs: digest, checks, replays

	// completed counts the jobs served, warm-up included; rssMark is
	// VmHWM once officeMemJobs timed jobs are done; heap0 is the live
	// heap, after a collection, at completed0 jobs before the first
	// window.
	completed, completed0 int
	rssMark               float64
	heap0                 uint64
}

func newOffice(seed uint64) (*office, error) {
	core.SetDefaultShards(1)
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	o := &office{seed: seed, svc: svc}
	for c := range o.clients {
		o.clients[c] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
		o.cur[c] = make([][]byte, len(officePlan))
		o.zero[c] = make([]*officeJob, len(officePlan))
	}
	return o, nil
}

func (o *office) close() {
	o.svc.close()
	for _, c := range o.clients {
		c.CloseIdleConnections()
	}
}

// request generates plan entry i of client c's cycle k.
func (o *office) request(c, k, i int) simd.Request {
	if p := officePlan[i]; p.kind == kindRepeat {
		return o.request(c, k, p.repeatOf)
	}
	first := func(tag int) uint64 { return mix(o.seed, 0x0ff1, uint64(c), uint64(k), uint64(tag)) >> 16 }
	switch officePlan[i].kind {
	case kindStraight:
		spec := experiments.DensitySpec(officeDensityPiconets)
		return simd.Request{Spec: &spec, Seeds: simd.SeedRange{First: first(i), Count: officeStraightReplicas},
			Slots: officeStraightSlots, SettleSlots: officeStraightSettle}
	default: // the fork pair shares its settle seed
		spec := poissonFloor()
		count, slots := officeForkReplicas, uint64(officeForkSlots)
		if officePlan[i].kind == kindForkShared {
			count, slots = officeForkSharedReplicas, officeForkSharedSlots
		}
		return simd.Request{Spec: &spec, Seeds: simd.SeedRange{First: first(-1), Count: count},
			Slots: slots, SettleSlots: officeForkSettle, Fork: true}
	}
}

// warmUp serves one straight and one forked job on seeds outside the
// timed sequence.
func (o *office) warmUp() error {
	for _, i := range []int{0, 1} {
		req := o.request(0, -1, i)
		req.Seeds.First = mix(o.seed, 0xfeed, uint64(i)) >> 16
		j := o.do(o.svc, 0, req, nil, "warm-up")
		if j.err != "" {
			return fmt.Errorf("office warm-up job: %s", j.err)
		}
		o.completed++
	}
	return nil
}

func (o *office) loop(deadline time.Time, t *tally, tr *tracer) {
	if o.heap0 == 0 {
		o.heap0, o.completed0 = liveHeap(), o.completed
	}
	t.begin()
	var wg sync.WaitGroup
	for c := 0; c < officeClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o.client(c, deadline, t, tr)
		}(c)
	}
	wg.Wait()
}

// client is one closed-loop client: submit, follow the event stream to
// the terminal frame, fetch the result, check it, repeat.
func (o *office) client(c int, deadline time.Time, t *tally, tr *tracer) {
	for {
		o.mu.Lock()
		idx := o.pos[c]
		if !time.Now().Before(deadline) && idx >= officeMemCycles*len(officePlan) {
			o.mu.Unlock()
			return
		}
		o.pos[c]++
		o.mu.Unlock()
		k, i := idx/len(officePlan), idx%len(officePlan)
		op := ""
		if tr != nil {
			op = fmt.Sprintf("job c%d-%d", c, idx)
		}
		j := o.do(o.svc, c, o.request(c, k, i), tr, op)
		j.client, j.index, j.kind = c, idx, officePlan[i].kind
		problem := o.verify(j, k, i)

		replicas, slots := 0, uint64(0)
		if !j.cached && j.err == "" {
			replicas = j.req.Seeds.Count
			slots = uint64(replicas) * j.req.Slots
			switch j.kind {
			case kindStraight:
				slots += uint64(replicas) * j.req.SettleSlots
			case kindFork:
				slots += j.req.SettleSlots
			}
		}
		failed := 0
		if problem != "" {
			failed = 1
		}
		lat := j.terminal.Sub(j.post)
		t.job(lat, 1, failed, replicas, slots, problem)
		t.kindJob(kindNames[j.kind], lat)
		o.mu.Lock()
		o.completed++
		if o.completed-o.completed0 == officeMemJobs {
			o.rssMark = peakRSSMiB()
		}
		o.mu.Unlock()
		t.mu.Lock()
		if !j.running.IsZero() {
			t.queueWaitMS = append(t.queueWaitMS, ms(j.running.Sub(j.post)))
			t.execMS = append(t.execMS, ms(j.terminal.Sub(j.running)))
		}
		t.respBytes = append(t.respBytes, float64(j.respBytes))
		t.mu.Unlock()
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// verify checks one served job and records its result for the repeat,
// determinism and digest checks; it returns "" when the job is correct.
func (o *office) verify(j *officeJob, k, i int) string {
	name := fmt.Sprintf("client %d job %d (%s)", j.client, j.index, kindNames[j.kind])
	if j.err != "" {
		return name + ": " + j.err
	}
	if j.state != simd.StateDone {
		return fmt.Sprintf("%s: ended %s", name, j.state)
	}
	var res simd.Result
	if err := json.Unmarshal(j.result, &res); err != nil {
		return fmt.Sprintf("%s: decoding result: %v", name, err)
	}
	if len(res.Points) != 1 || len(res.Points[0].Replicas) != j.req.Seeds.Count {
		return fmt.Sprintf("%s: result shape %d points", name, len(res.Points))
	}
	for r, m := range res.Points[0].Replicas {
		if m.Slots != j.req.Slots || m.Bytes <= 0 {
			return fmt.Sprintf("%s: replica %d window %d slots, %d bytes", name, r, m.Slots, m.Bytes)
		}
	}
	if (j.kind == kindRepeat) != j.cached {
		return fmt.Sprintf("%s: cached=%v, the plan says otherwise", name, j.cached)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if j.kind == kindRepeat && !bytes.Equal(j.result, o.cur[j.client][officePlan[i].repeatOf]) {
		return name + ": repeat differs from the result it repeats"
	}
	o.cur[j.client][i] = j.result
	if k == 0 {
		o.zero[j.client][i] = j
	}
	return ""
}

// do serves one request on v as client c: POST it, follow its event
// stream to the terminal frame, then GET the status with the result.
func (o *office) do(v *service, c int, req simd.Request, tr *tracer, op string) *officeJob {
	j := &officeJob{req: req}
	hc := o.clients[c]
	root := tr.begin("job", op, 0)
	defer tr.end(root)
	body, err := json.Marshal(req)
	if err != nil {
		j.err = err.Error()
		return j
	}
	j.post = time.Now()
	defer func() {
		if j.terminal.IsZero() {
			j.terminal = time.Now()
		}
	}()
	sp := tr.begin("http_submit", op, root)
	resp, err := hc.Post(v.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(sp)
		j.err = err.Error()
		return j
	}
	var st simd.Status
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted) {
		j.err = fmt.Sprintf("submit: HTTP %d %s", resp.StatusCode, strings.TrimSpace(string(data)))
		return j
	}
	if err := json.Unmarshal(data, &st); err != nil {
		j.err = "submit: " + err.Error()
		return j
	}
	j.cached = st.Cached
	queue := tr.begin("queue", op, root)
	if err := follow(hc, v.url, st.ID, j, tr, op, root, queue); err != nil {
		j.err = err.Error()
		return j
	}
	sp = tr.begin("http_result", op, root)
	defer tr.end(sp)
	resp, err = hc.Get(v.url + "/v1/jobs/" + st.ID)
	if err != nil {
		j.err = err.Error()
		return j
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		j.err = fmt.Sprintf("status: HTTP %d", resp.StatusCode)
		return j
	}
	j.respBytes = len(data)
	var raw struct {
		State  simd.State      `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		j.err = "status: " + err.Error()
		return j
	}
	var compact bytes.Buffer
	if raw.Result != nil {
		if err := json.Compact(&compact, raw.Result); err != nil {
			j.err = "status: " + err.Error()
			return j
		}
	}
	j.result = compact.Bytes()
	if raw.State != j.state {
		j.err = fmt.Sprintf("status says %s, the terminal frame said %s", raw.State, j.state)
	}
	return j
}

// follow reads the job's SSE stream until the server closes it,
// recording when the "running" and the terminal state frames arrive.
// queue is the open span from submission to the running frame.
func follow(hc *http.Client, url, id string, j *officeJob, tr *tracer, op string, root, queue int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	exec := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		v, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != "state" {
			continue
		}
		var ev simd.StateEvent
		if err := json.Unmarshal([]byte(v), &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		now := time.Now()
		switch {
		case ev.State == simd.StateRunning && j.running.IsZero():
			j.running = now
			tr.end(queue)
			exec = tr.begin("exec", op, root)
		case ev.State == simd.StateDone || ev.State == simd.StateFailed || ev.State == simd.StateCanceled:
			if j.terminal.IsZero() {
				j.terminal = now
				j.state = ev.State
				if ev.Error != "" {
					j.err = "job " + string(ev.State) + ": " + ev.Error
				}
			}
		}
	}
	if exec != 0 {
		tr.end(exec)
	} else {
		tr.end(queue)
	}
	if err := sc.Err(); err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("events: %w", err)
	}
	if j.terminal.IsZero() {
		return fmt.Errorf("events: stream ended without a terminal frame")
	}
	return nil
}

func (o *office) digest() string {
	var all []string
	for c := range o.zero {
		for _, j := range o.zero[c] {
			if j == nil {
				return ""
			}
			sum := sha256.Sum256(j.result)
			all = append(all, hex.EncodeToString(sum[:]))
		}
	}
	return digestOf(all)
}

// check replays one seed-chosen straight or forked job of the first
// cycle serially in-process with simd.Run and requires the served
// result byte for byte (the identity TestServerCampaignDeterminism
// pins).
func (o *office) check() error {
	c := int(o.seed % officeClients)
	picks := []int{0, 1, 2, 4, 5}
	i := picks[int(o.seed/officeClients)%len(picks)]
	j := o.zero[c][i]
	if j == nil {
		return fmt.Errorf("office: sampled job (client %d, plan entry %d) never completed", c, i)
	}
	ref, err := simd.Run(context.Background(), j.req, runner.Config{Workers: runner.Serial})
	if err != nil {
		return fmt.Errorf("office: serial replay: %w", err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, j.result) {
		return fmt.Errorf("office: served job (client %d, plan entry %d) differs from serial in-process simd.Run", c, i)
	}
	fmt.Printf("sampled job (client %d, plan entry %d, %s) matches serial simd.Run byte for byte\n", c, i, kindNames[j.kind])
	return nil
}

// layers replays every distinct first-cycle job in-process, serially,
// through the public calls simd.RunReplica, SettleCheckpoint and
// ForkReplica make, with a span around each call; it then times the
// same jobs through simd.Run at the service's concurrency for the
// service overhead.
func (o *office) layers(m metricSet, tr *tracer) error {
	var jobs []*officeJob
	for c := range o.zero {
		for i, j := range o.zero[c] {
			if j == nil {
				return fmt.Errorf("office: first cycle incomplete (client %d, plan entry %d)", c, i)
			}
			if j.kind != kindRepeat {
				jobs = append(jobs, j)
			}
		}
	}
	var r replayStats
	for _, j := range jobs {
		if err := r.replay(j, tr); err != nil {
			return err
		}
	}
	if err := r.heapPerDevice(); err != nil {
		return err
	}
	r.counts.report(m)
	m.add("core.host_ms_per_sim_s", r.counts.kernel.Seconds()*1000/(float64(r.windowSlots)*slotSeconds), "ms/s")
	m.add("netspec.build_ms", median(r.buildMS), "ms")
	m.add("netspec.build_allocs", median(r.buildAllocs), "count")
	m.add("netspec.heap_bytes_per_device", r.bytesPerDevice, "bytes")
	m.add("netspec.ckpt_snapshot_ms", median(r.snapshotMS), "ms")
	m.add("netspec.ckpt_bytes", median(r.ckptBytes), "bytes")
	m.add("netspec.ckpt_encode_ms", median(r.encodeMS), "ms")
	m.add("netspec.ckpt_decode_ms", median(r.decodeMS), "ms")
	m.add("netspec.ckpt_restore_ms", median(r.restoreMS), "ms")

	hits, n := 0, 0
	for c := range o.zero {
		for _, j := range o.zero[c] {
			n++
			if j.cached {
				hits++
			}
		}
	}
	m.add("simd.result_hit_frac", ratio(hits, n), "frac")
	st := o.svc.engine.Stats()
	m.add("simd.ckpt_hit_frac", ratio(int(st.Checkpoints.Hits), int(st.Checkpoints.Hits+st.Checkpoints.Misses)), "frac")

	over, err := o.overhead()
	if err != nil {
		return err
	}
	m.add("simd.overhead_ms", over, "ms")
	return nil
}

// overhead serves each client's first-cycle straight and forked jobs
// again, on a fresh engine whose empty caches make every one a miss,
// and runs each through in-process simd.Run right after serving it,
// the two clients concurrently as in the service. It returns the median
// of served exec time minus in-process time; pairing each job's two
// runs puts both under the same host conditions. The checkpoint-sharing
// jobs are left out: in-process they settle afresh.
func (o *office) overhead() (float64, error) {
	v, err := startService()
	if err != nil {
		return 0, err
	}
	defer v.close()
	var mu sync.Mutex
	var diffs []float64
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for c := range o.zero {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, j := range o.zero[c] {
				if j.kind != kindStraight && j.kind != kindFork {
					continue
				}
				s := o.do(v, c, j.req, nil, "")
				switch {
				case s.err != "":
					fail(fmt.Errorf("office: re-serving client %d job %d: %s", c, j.index, s.err))
					return
				case s.running.IsZero() || s.cached:
					fail(fmt.Errorf("office: re-served client %d job %d never ran", c, j.index))
					return
				case !bytes.Equal(s.result, j.result):
					fail(fmt.Errorf("office: re-served client %d job %d differs from its first serving", c, j.index))
					return
				}
				t0 := time.Now()
				_, err := simd.Run(context.Background(), j.req, runner.Config{})
				d := time.Since(t0)
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				diffs = append(diffs, ms(s.terminal.Sub(s.running)-d))
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return median(diffs), firstErr
}

// memory returns VmHWM as it stood when officeMemJobs timed jobs were
// done. It also estimates the engine's job table, which keeps every
// job served with its result: the live heap, after a collection, grown
// per job since the first window began (the bounded result and
// checkpoint caches fill in that span too, so it is an upper bound).
func (o *office) memory() float64 {
	heap1 := liveHeap()
	o.mu.Lock()
	n0, n1, mark := o.completed0, o.completed, o.rssMark
	o.mu.Unlock()
	if n1 > n0 {
		per := (float64(heap1) - float64(o.heap0)) / float64(n1-n0)
		at := func(jobs int) float64 { return per * float64(jobs) / (1 << 20) }
		fmt.Printf("job table: %.1f KiB of live heap per served job; %.2f MiB at the %d-job mark (peak_rss_mib %.2f MiB), %.2f MiB at the end (%d jobs, VmHWM %.2f MiB)\n",
			per/1024, at(n0+officeMemJobs), officeMemJobs, mark, at(n1), n1, peakRSSMiB())
	}
	return mark
}

// liveHeap collects garbage and returns the bytes of live heap.
func liveHeap() uint64 {
	var st runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&st)
	return st.HeapAlloc
}

// replayStats accumulates the in-process replays' measurements.
type replayStats struct {
	counts                         jobCounts
	windowSlots                    uint64
	buildMS, buildAllocs           []float64
	snapshotMS, encodeMS           []float64
	decodeMS, restoreMS, ckptBytes []float64
	bytesPerDevice                 float64
	straight                       *officeJob
}

// replay re-runs one served job replica by replica and requires every
// replica's Metrics to equal the served one.
func (r *replayStats) replay(j *officeJob, tr *tracer) error {
	var res simd.Result
	if err := json.Unmarshal(j.result, &res); err != nil {
		return err
	}
	served := res.Points[0].Replicas
	spec := *j.req.Spec
	op := fmt.Sprintf("replay c%d-%d", j.client, j.index)
	root := tr.begin("replay", op, 0)
	defer tr.end(root)
	var ckBytes []byte
	if j.req.Fork {
		// SettleCheckpoint's calls.
		s := core.NewSimulation(core.Options{Seed: j.req.Seeds.First})
		sp := tr.begin("build", op, root)
		w, err := netspec.Build(s, spec)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("replay build: %w", err)
		}
		sp = tr.begin("start", op, root)
		w.Start()
		tr.end(sp)
		sp = tr.begin("settle", op, root)
		s.RunSlots(j.req.SettleSlots)
		tr.end(sp)
		sp = tr.begin("snapshot", op, root)
		t0 := time.Now()
		ck, err := w.Snapshot()
		r.snapshotMS = append(r.snapshotMS, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("replay snapshot: %w", err)
		}
		sp = tr.begin("encode", op, root)
		t0 = time.Now()
		ckBytes, err = ck.Encode()
		r.encodeMS = append(r.encodeMS, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		r.ckptBytes = append(r.ckptBytes, float64(len(ckBytes)))
	} else if r.straight == nil {
		r.straight = j
	}
	for i := range served {
		if err := r.replayReplica(j, i, ckBytes, served[i], tr, op, root); err != nil {
			return err
		}
	}
	return nil
}

// replayReplica re-runs replica rep of job j (from ckBytes when the job
// is forked) and requires its Metrics to equal the served ones.
func (r *replayStats) replayReplica(j *officeJob, rep int, ckBytes []byte, served netspec.Metrics, tr *tracer, op string, root int) error {
	op = fmt.Sprintf("%s replica %d", op, rep)
	rp := tr.begin("replica", op, root)
	defer tr.end(rp)
	var s *core.Simulation
	var w *netspec.World
	if j.req.Fork {
		// ForkReplica's calls; replica 0 resumes the captured streams.
		forkSeed := uint64(0)
		if rep > 0 {
			forkSeed = j.req.Seeds.First + uint64(rep)
		}
		sp := tr.begin("decode", op, rp)
		t0 := time.Now()
		ck, err := netspec.DecodeCheckpoint(ckBytes)
		r.decodeMS = append(r.decodeMS, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		sp = tr.begin("restore", op, rp)
		t0 = time.Now()
		s = core.NewSimulation(core.Options{Seed: ck.Core.Seed})
		w, err = netspec.RestoreWorld(s, ck, core.RestoreOptions{ForkSeed: forkSeed})
		r.restoreMS = append(r.restoreMS, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("replay restore: %w", err)
		}
	} else {
		// RunReplica's calls.
		s = core.NewSimulation(core.Options{Seed: j.req.Seeds.First + uint64(rep)})
		var err error
		if w, err = r.build(s, *j.req.Spec, tr, op, rp); err != nil {
			return err
		}
		sp := tr.begin("start", op, rp)
		w.Start()
		tr.end(sp)
		sp = tr.begin("settle", op, rp)
		s.RunSlots(j.req.SettleSlots)
		tr.end(sp)
	}
	w.ResetMetrics()
	st0 := s.Ch.Stats()
	pkts0, retrans0 := devCounters(s)
	sp := tr.begin("run", op, rp)
	t0 := time.Now()
	s.RunSlots(j.req.Slots)
	kernel := time.Since(t0)
	r.windowSlots += j.req.Slots
	tr.end(sp)
	sp = tr.begin("metrics", op, rp)
	got := w.Metrics()
	tr.end(sp)
	st := s.Ch.Stats()
	pkts, retrans := devCounters(s)
	r.counts.add(st.Transmissions-st0.Transmissions, st.Collisions-st0.Collisions, pkts-pkts0, retrans-retrans0, kernel)
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(served)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("replay of client %d job %d replica %d differs from the served result", j.client, j.index, rep)
	}
	return nil
}

// build is netspec.Build with its time and allocation count recorded;
// only the large straight-job worlds are recorded.
func (r *replayStats) build(s *core.Simulation, spec netspec.Spec, tr *tracer, op string, parent int) (*netspec.World, error) {
	sp := tr.begin("build", op, parent)
	a0 := readGC().allocs
	t0 := time.Now()
	w, err := netspec.Build(s, spec)
	r.buildMS = append(r.buildMS, ms(time.Since(t0)))
	r.buildAllocs = append(r.buildAllocs, float64(readGC().allocs-a0))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("replay build: %w", err)
	}
	return w, nil
}

// heapPerDevice measures the live heap a built straight-job world holds
// per device.
func (r *replayStats) heapPerDevice() error {
	if r.straight == nil {
		return fmt.Errorf("office: no straight job to size")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := core.NewSimulation(core.Options{Seed: r.straight.req.Seeds.First})
	w, err := netspec.Build(s, *r.straight.req.Spec)
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := len(s.Devices())
	runtime.KeepAlive(w)
	if n > 0 {
		r.bytesPerDevice = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	}
	return nil
}
