// Package simd is the simulation service: replica campaigns over the
// netspec wire format, run as jobs behind an HTTP API (cmd/btsimd).
// A job is a Request — one or more Specs, a seed range, a slot horizon
// — executed on the internal/runner pool under the same replica
// discipline the experiments layer uses, so a campaign run through the
// service returns byte-identical JSON to the same campaign run
// in-process. Jobs queue FIFO behind a bounded set of runner slots,
// cancel via context at replica-chunk granularity, stream progress and
// live metrics snapshots over SSE, and completed results land in an
// LRU cache keyed by the canonical request hash, so resubmitting a
// campaign is a lookup, not a simulation.
//
// Live snapshots never touch the campaign replicas: a separate monitor
// replica (same world, first seed) runs alongside the sweep and has its
// metrics window read and reset per snapshot period. ResetMetrics on a
// campaign replica would change its reported window and break the
// determinism contract; the monitor's windows are observational only.
package simd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netspec"
	"repro/internal/runner"
)

// Options sizes the engine. The zero value is a usable default.
type Options struct {
	// MaxJobs is the number of campaigns running concurrently
	// (default 2). Each runs its own runner pool of Workers workers.
	MaxJobs int
	// QueueDepth bounds the jobs waiting behind the runner slots
	// (default 16); submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// CacheSize is the result-cache capacity in campaigns (default 64;
	// negative disables caching).
	CacheSize int
	// CheckpointCacheSize is the checkpoint-cache capacity in settled
	// worlds for forked campaigns (default 16; negative disables).
	// Checkpoints are bigger than results — a serialized world, not a
	// metrics table — so the default is deliberately smaller.
	CheckpointCacheSize int
	// Workers is each campaign's runner pool size (0 = GOMAXPROCS,
	// runner.Serial = in-line).
	Workers int
	// SnapshotSlots is the monitor replica's window length: every
	// SnapshotSlots simulated slots, a live Metrics window is published
	// to the job's event stream. 0 disables the monitor entirely.
	SnapshotSlots uint64
}

// ErrQueueFull is returned by Submit when the job queue is at
// QueueDepth; the HTTP layer maps it to 429.
var ErrQueueFull = errors.New("simd: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("simd: engine closed")

// Engine owns the job table, the FIFO queue, the runner slots and the
// result cache.
type Engine struct {
	opt     Options
	queue   chan *Job
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for stable listings
	nextID int
	cache  *lru[*Result]
	hits   uint64
	misses uint64
	closed bool

	// cks is the checkpoint store for forked campaigns; it carries its
	// own lock because settles run on the job goroutines, not under mu.
	cks *ckStore
}

// New starts an engine with MaxJobs runner goroutines.
func New(opt Options) *Engine {
	if opt.MaxJobs <= 0 {
		opt.MaxJobs = 2
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 16
	}
	if opt.CacheSize == 0 {
		opt.CacheSize = 64
	}
	if opt.CheckpointCacheSize == 0 {
		opt.CheckpointCacheSize = 16
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		opt:     opt,
		queue:   make(chan *Job, opt.QueueDepth),
		baseCtx: ctx,
		stop:    cancel,
		jobs:    make(map[string]*Job),
		cache:   newLRU[*Result](opt.CacheSize),
		cks:     newCkStore(opt.CheckpointCacheSize),
	}
	e.wg.Add(opt.MaxJobs)
	for i := 0; i < opt.MaxJobs; i++ {
		go e.runLoop()
	}
	return e
}

// Drain retires the engine gracefully: intake closes immediately
// (Submit returns ErrClosed), jobs still waiting in the queue are
// canceled without ever taking a slot, and running campaigns keep
// their slots until they finish on their own. It returns nil once
// every job is terminal — at which point every SSE subscriber has
// received its terminal frame — or ctx.Err() if the deadline passes
// first; either way the caller follows with Close, which cancels any
// stragglers.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	e.closed = true
	var queued []*Job
	for _, j := range e.jobs {
		if j.State() == StateQueued {
			queued = append(queued, j)
		}
	}
	e.mu.Unlock()
	for _, j := range queued {
		j.Cancel()
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if e.idle() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// idle reports whether every submitted job is terminal.
func (e *Engine) idle() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, j := range e.jobs {
		if !j.State().terminal() {
			return false
		}
	}
	return true
}

// Close cancels every queued and running job and waits for the runner
// goroutines to drain. Submitting afterwards returns ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.stop()
	e.wg.Wait()
	// Anything still queued or running went down with the base context;
	// mark it canceled so the job table ends in a terminal state.
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, j := range e.jobs {
		j.finish(StateCanceled, nil, "engine closed")
	}
}

// Submit validates the request, consults the result cache, and either
// returns a job that is already done (cache hit) or enqueues a fresh
// one FIFO. The returned job's ID is the handle for the status, event
// and cancel endpoints.
func (e *Engine) Submit(req Request) (*Job, error) {
	n, err := req.normalized()
	if err != nil {
		return nil, err
	}
	key, err := n.CacheKey()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(e.baseCtx)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		cancel()
		return nil, ErrClosed
	}
	e.nextID++
	job := &Job{
		ID: fmt.Sprintf("j%d", e.nextID), Req: n, Key: key,
		ctx: ctx, cancel: cancel,
		state: StateQueued, subs: make(map[chan Event]struct{}),
		total: len(n.Points) * n.Seeds.Count,
	}
	if res, ok := e.cache.get(key); ok {
		e.hits++
		cancel()
		job.cached = true
		job.done = job.total
		job.state = StateDone
		job.result = res
		e.jobs[job.ID] = job
		e.order = append(e.order, job.ID)
		return job, nil
	}
	e.misses++
	select {
	case e.queue <- job:
	default:
		cancel()
		return nil, ErrQueueFull
	}
	e.jobs[job.ID] = job
	e.order = append(e.order, job.ID)
	return job, nil
}

// Job looks a job up by ID.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// CacheStats is the result cache's hit accounting.
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
}

// Stats is the JSON shape of GET /v1/stats.
type Stats struct {
	// QueueDepth is the number of jobs waiting for a runner slot.
	QueueDepth int `json:"queue_depth"`
	// Jobs counts every submitted job by current state.
	Jobs map[State]int `json:"jobs"`
	// Cache is the result cache's accounting.
	Cache CacheStats `json:"cache"`
	// Checkpoints is the checkpoint cache's accounting (forked
	// campaigns only; an unforked engine reports all zeros).
	Checkpoints CacheStats `json:"checkpoints"`
}

// Stats snapshots the engine.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Stats{
		QueueDepth: len(e.queue),
		Jobs:       make(map[State]int),
		Cache: CacheStats{
			Hits: e.hits, Misses: e.misses,
			Entries: e.cache.len(), Capacity: e.opt.CacheSize,
		},
		Checkpoints: e.cks.stats(e.opt.CheckpointCacheSize),
	}
	for _, id := range e.order {
		s.Jobs[e.jobs[id].State()]++
	}
	return s
}

// runLoop is one runner slot: it drains the FIFO queue until Close.
func (e *Engine) runLoop() {
	defer e.wg.Done()
	for {
		select {
		case <-e.baseCtx.Done():
			return
		case job := <-e.queue:
			e.runJob(job)
		}
	}
}

// runJob executes one campaign. Panics (a spec that validates but
// trips a deeper invariant) fail the job instead of killing the slot.
func (e *Engine) runJob(job *Job) {
	defer job.cancel()
	if !job.setRunning() {
		return // canceled while queued
	}
	ctx := job.ctx
	if e.opt.SnapshotSlots > 0 {
		go e.monitor(ctx, job)
	}
	res, err := func() (res *Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("campaign panicked: %v", r)
			}
		}()
		return run(ctx, job.Req, runner.Config{
			Workers: e.opt.Workers,
			Progress: func(_ string, done, total int) {
				job.setProgress(done, total)
			},
		}, e.cks)
	}()
	switch {
	case err != nil && ctx.Err() != nil:
		job.finish(StateCanceled, nil, context.Canceled.Error())
	case err != nil:
		job.finish(StateFailed, nil, err.Error())
	default:
		e.mu.Lock()
		e.cache.put(job.Key, res)
		e.mu.Unlock()
		job.finish(StateDone, res, "")
	}
}

// monitor runs the observational replica: the job's first point under
// its first seed, with the metrics window read and reset once per
// SnapshotSlots. Its windows feed the SSE stream only — the campaign
// replicas never have their windows touched mid-run.
func (e *Engine) monitor(ctx context.Context, job *Job) {
	defer func() { recover() }() // monitor crashes must not take the job down
	spec := job.Req.Points[0]
	s := core.NewSimulation(core.Options{Seed: job.Req.Seeds.First})
	w, err := netspec.Build(s, spec)
	if err != nil {
		return // the campaign will report the same failure
	}
	w.Start()
	if runChunked(ctx, s, job.Req.SettleSlots) != nil {
		return
	}
	w.ResetMetrics()
	for done := uint64(0); done < job.Req.Slots; {
		if ctx.Err() != nil {
			return
		}
		n := min(e.opt.SnapshotSlots, job.Req.Slots-done)
		s.RunSlots(n)
		done += n
		job.snapshot(w.Metrics())
		w.ResetMetrics()
	}
}
