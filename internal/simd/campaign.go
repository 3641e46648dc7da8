package simd

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/netspec"
	"repro/internal/runner"
)

// SeedRange names the replica seeds of a campaign: Count consecutive
// seeds starting at First. Replica r of every point runs under seed
// First+r — common random numbers across points, exactly like the
// experiments layer's sweeps.
type SeedRange struct {
	First uint64 `json:"first"`
	Count int    `json:"count"`
}

// Request is the body of POST /v1/jobs: a replica campaign over one or
// more netspec worlds. Either Spec (one point) or Points (a parameter
// sweep, each point a full Spec) names the worlds; Seeds and Slots fix
// the replica seeds and the measurement horizon. The whole request is
// deterministic by construction — resubmitting it yields byte-identical
// results, which is what makes the result cache sound.
type Request struct {
	// Spec is the single-point form. Ignored when Points is non-empty.
	Spec *netspec.Spec `json:"spec,omitempty"`
	// Points is the sweep form: one full Spec per parameter point.
	Points []netspec.Spec `json:"points,omitempty"`
	// Seeds are the replica seeds shared by every point.
	Seeds SeedRange `json:"seeds"`
	// Slots is the measured horizon of every replica.
	Slots uint64 `json:"slots"`
	// SettleSlots run after World.Start and before the measurement
	// window opens (default 0); the paper's coexistence sweeps use a
	// short settle so ARQ pipelines are primed when measurement starts.
	SettleSlots uint64 `json:"settle_slots,omitempty"`
	// Fork switches the campaign to the checkpoint-fork discipline:
	// each point's world is built and settled once under Seeds.First,
	// snapshotted at the next quiescent slot edge, and every replica
	// restores from those bytes instead of rebuilding and re-settling
	// its own world. Replica 0 forks with seed 0 — byte-identical to
	// the straight continuation of the settled world from the capture
	// instant — while replica r >= 1 perturbs the restored RNG streams
	// with fork seed Seeds.First+r.
	// Forked and unforked campaigns measure different (both valid)
	// replica ensembles — perturbed streams over one warm-up versus
	// independent warm-ups — so Fork participates in the cache key.
	// Settle-heavy campaigns pay the settle once instead of once per
	// replica; see BenchmarkCheckpointFork for the rate gap.
	Fork bool `json:"fork,omitempty"`
}

// normalized returns the request with the single-point form folded into
// Points and defaults applied, or an error describing why it can never
// run. Spec validation errors come back as the *netspec.StanzaError the
// spec layer produced, so API clients see the same diagnostics the
// library gives.
func (r Request) normalized() (Request, error) {
	if len(r.Points) == 0 {
		if r.Spec == nil {
			return r, fmt.Errorf("simd: request has neither spec nor points")
		}
		r.Points = []netspec.Spec{*r.Spec}
	}
	r.Spec = nil
	if r.Seeds.Count == 0 {
		r.Seeds.Count = 1
	}
	if r.Seeds.Count < 0 {
		return r, fmt.Errorf("simd: seeds.count %d is negative", r.Seeds.Count)
	}
	if r.Slots == 0 {
		return r, fmt.Errorf("simd: slots must be at least 1")
	}
	for i := range r.Points {
		if err := r.Points[i].Validate(); err != nil {
			return r, fmt.Errorf("simd: points[%d]: %w", i, err)
		}
		if r.Fork {
			for j := range r.Points[i].Piconets {
				if r.Points[i].Piconets[j].HCI {
					return r, fmt.Errorf("simd: points[%d]: piconets[%d]: HCI worlds cannot be checkpoint-forked (host-side state lives outside the world)", i, j)
				}
			}
		}
	}
	return r, nil
}

// CacheKey is the request's identity for the result cache: the hex
// SHA-256 over the canonical encoding of every point plus the seed
// range and horizons. Two requests that build the same worlds and run
// the same replicas — however their specs spelled the defaults — key
// identically.
func (r Request) CacheKey() (string, error) {
	n, err := r.normalized()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var hdr [48]byte
	binary.LittleEndian.PutUint64(hdr[0:], n.Seeds.First)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(n.Seeds.Count))
	binary.LittleEndian.PutUint64(hdr[16:], n.Slots)
	binary.LittleEndian.PutUint64(hdr[24:], n.SettleSlots)
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(n.Points)))
	if n.Fork {
		// Forked and unforked campaigns over the same points measure
		// different replica ensembles; they must never share a result.
		hdr[40] = 1
	}
	h.Write(hdr[:])
	for i := range n.Points {
		c, err := n.Points[i].Canonical()
		if err != nil {
			return "", fmt.Errorf("simd: points[%d]: %w", i, err)
		}
		var sz [8]byte
		binary.LittleEndian.PutUint64(sz[:], uint64(len(c)))
		h.Write(sz[:])
		h.Write(c)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// PointResult is one parameter point's replica table.
type PointResult struct {
	// SpecHash is the point's canonical spec hash (netspec.Spec.Hash).
	SpecHash string `json:"spec_hash"`
	// Replicas holds one Metrics window per seed, in seed order.
	Replicas []netspec.Metrics `json:"replicas"`
}

// Result is a completed campaign: [point][replica] metrics, the same
// layout runner.Sweep returns, so serial in-process runs and service
// runs are comparable entry by entry.
type Result struct {
	Points []PointResult `json:"points"`
}

// replicaChunkSlots is the granularity at which a running replica
// re-checks its context, in the settle and in the measured horizon.
// Chunking only splits RunSlots calls — the kernel advances to the
// same slot boundaries either way — so the chunk size cannot influence
// results, only cancellation latency.
const replicaChunkSlots = 4096

// runChunked advances s by slots in replicaChunkSlots chunks and
// returns ctx.Err() at the first chunk boundary after a non-nil ctx is
// canceled.
func runChunked(ctx context.Context, s *core.Simulation, slots uint64) error {
	for done := uint64(0); done < slots; {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		n := min(replicaChunkSlots, slots-done)
		s.RunSlots(n)
		done += n
	}
	return nil
}

// RunReplica runs one replica of one point under the campaign
// discipline — build from seed, start, settle, open the window, run the
// horizon — and returns its Metrics window. This exact function is the
// unit the service executes per (point, seed), and cmd/btsim -spec
// calls it too, which is why a CLI run and the matching server replica
// entry are byte-identical JSON. A non-nil ctx cancels between slot
// chunks of the settle or the horizon; the partial window is returned
// and the caller is responsible for discarding it (campaign results
// never include canceled windows).
func RunReplica(ctx context.Context, spec netspec.Spec, seed, settleSlots, slots uint64) (netspec.Metrics, error) {
	s := core.NewSimulation(core.Options{Seed: seed})
	w, err := netspec.Build(s, spec)
	if err != nil {
		return netspec.Metrics{}, err
	}
	w.Start()
	if err := runChunked(ctx, s, settleSlots); err != nil {
		return netspec.Metrics{}, err
	}
	w.ResetMetrics()
	err = runChunked(ctx, s, slots)
	return w.Metrics(), err
}

// SettleCheckpoint builds spec under seed, starts its traffic, runs
// the settle horizon and captures the world at the next quiescent slot
// edge, returning the serialized checkpoint. It is the once-per-point
// Prepare half of a forked campaign; the checkpoint embeds the build
// seed, so ForkReplica needs nothing but the bytes. A non-nil ctx
// cancels between settle chunks and returns ctx.Err().
func SettleCheckpoint(ctx context.Context, spec netspec.Spec, seed, settleSlots uint64) ([]byte, error) {
	s := core.NewSimulation(core.Options{Seed: seed})
	w, err := netspec.Build(s, spec)
	if err != nil {
		return nil, err
	}
	w.Start()
	if err := runChunked(ctx, s, settleSlots); err != nil {
		return nil, err
	}
	ck, err := w.Snapshot()
	if err != nil {
		return nil, err
	}
	return ck.Encode()
}

// ForkReplica restores one replica from serialized checkpoint bytes
// under forkSeed (0 resumes the captured streams exactly), opens the
// metrics window at the fork instant and runs the measured horizon.
// Every caller decodes its own copy of the bytes, so concurrent forks
// share nothing. Cancellation mirrors RunReplica: a non-nil ctx stops
// between slot chunks and the partial window must be discarded.
func ForkReplica(ctx context.Context, ckBytes []byte, forkSeed, slots uint64) (netspec.Metrics, error) {
	ck, err := netspec.DecodeCheckpoint(ckBytes)
	if err != nil {
		return netspec.Metrics{}, err
	}
	// The target must rebuild under the capture seed: placement layouts
	// draw from a seed-derived stream, not from checkpointed state.
	s := core.NewSimulation(core.Options{Seed: ck.Core.Seed})
	w, err := netspec.RestoreWorld(s, ck, core.RestoreOptions{ForkSeed: forkSeed})
	if err != nil {
		return netspec.Metrics{}, err
	}
	w.ResetMetrics()
	err = runChunked(ctx, s, slots)
	return w.Metrics(), err
}

// Run executes the campaign and returns its result. The replicas fan
// out through runner.Sweep (or runner.ForkSweep when the request asks
// for checkpoint forking) under cfg (workers, progress, context), and
// the [point][replica] result layout is schedule-independent, so any
// worker count — and the serial reference the determinism test uses —
// produces byte-identical Result JSON. A canceled context returns
// ctx.Err() and no result.
func Run(ctx context.Context, req Request, cfg runner.Config) (*Result, error) {
	return run(ctx, req, cfg, nil)
}

// run is Run with an optional shared checkpoint store: the engine
// passes its LRU so repeated forked campaigns on the same settled
// world skip the settle; bare Run settles every time.
func run(ctx context.Context, req Request, cfg runner.Config, cks *ckStore) (*Result, error) {
	n, err := req.normalized()
	if err != nil {
		return nil, err
	}
	cfg.Context = ctx
	type rep struct {
		m   netspec.Metrics
		err error
	}
	var rows [][]rep
	if n.Fork {
		fw := runner.ForkSweep[netspec.Spec, rep]{
			Name:     "campaign",
			Points:   n.Points,
			Replicas: n.Seeds.Count,
			Seed: func(point, replica int) uint64 {
				return n.Seeds.First + uint64(replica)
			},
			Prepare: func(seed uint64, spec netspec.Spec) ([]byte, error) {
				return cks.settle(ctx, spec, seed, n.SettleSlots)
			},
			Trial: func(ck []byte, forkSeed uint64, _ netspec.Spec) rep {
				m, err := ForkReplica(ctx, ck, forkSeed, n.Slots)
				return rep{m, err}
			},
		}
		rows, err = fw.Run(cfg)
		if err != nil {
			if ctx != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("simd: settling checkpoint: %w", err)
		}
	} else {
		sw := runner.Sweep[netspec.Spec, rep]{
			Name:     "campaign",
			Points:   n.Points,
			Replicas: n.Seeds.Count,
			Seed: func(point, replica int) uint64 {
				return n.Seeds.First + uint64(replica)
			},
			Trial: func(seed uint64, spec netspec.Spec) rep {
				m, err := RunReplica(ctx, spec, seed, n.SettleSlots, n.Slots)
				return rep{m, err}
			},
		}
		rows = sw.Run(cfg)
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	res := &Result{Points: make([]PointResult, len(n.Points))}
	for i := range n.Points {
		hash, err := n.Points[i].Hash()
		if err != nil {
			return nil, err
		}
		pr := PointResult{SpecHash: hash, Replicas: make([]netspec.Metrics, len(rows[i]))}
		for j, r := range rows[i] {
			if r.err != nil {
				return nil, fmt.Errorf("simd: points[%d] seed %d: %w", i, n.Seeds.First+uint64(j), r.err)
			}
			pr.Replicas[j] = r.m
		}
		res.Points[i] = pr
	}
	return res, nil
}

// ckStore is the checkpoint LRU the engine keeps next to the result
// cache, plus its lock and hit accounting. The result cache keys whole
// campaigns; this one keys settled worlds — (canonical spec, build
// seed, settle horizon) — so a forked what-if sweep that
// varies only the measured horizon or the replica count still reuses
// the expensive settle. A nil store settles every time.
type ckStore struct {
	mu     sync.Mutex
	lru    *lru[[]byte]
	hits   uint64
	misses uint64
}

func newCkStore(capacity int) *ckStore {
	return &ckStore{lru: newLRU[[]byte](capacity)}
}

// settle returns the serialized settle checkpoint for (spec, seed,
// settleSlots), from the cache when possible. The lock is not held
// across the settle itself; two campaigns racing on the same key both
// simulate and store byte-identical results, which is wasteful but
// correct. A settle canceled through ctx stores nothing.
func (c *ckStore) settle(ctx context.Context, spec netspec.Spec, seed, settleSlots uint64) ([]byte, error) {
	if c == nil {
		return SettleCheckpoint(ctx, spec, seed, settleSlots)
	}
	key, err := ckKey(spec, seed, settleSlots)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	b, ok := c.lru.get(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if ok {
		return b, nil
	}
	b, err = SettleCheckpoint(ctx, spec, seed, settleSlots)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.lru.put(key, b)
	c.mu.Unlock()
	return b, nil
}

// stats snapshots the store for GET /v1/stats.
func (c *ckStore) stats(capacity int) CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.len(), Capacity: capacity}
}

// ckKey is the checkpoint cache key: SHA-256 over the canonical spec
// plus the build seed and the settle horizon.
func ckKey(spec netspec.Spec, seed, settleSlots uint64) (string, error) {
	c, err := spec.Canonical()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], seed)
	binary.LittleEndian.PutUint64(hdr[8:], settleSlots)
	h.Write(hdr[:])
	h.Write(c)
	return hex.EncodeToString(h.Sum(nil)), nil
}
