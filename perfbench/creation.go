package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/baseband"
	"repro/internal/core"
	"repro/internal/runner"
)

// The creation workload is the paper's Figs 6-8: piconet creation
// (inquiry then page, each bounded by the 1.28 s timeout) between two
// fresh devices at every BER of the sweep. One job is one runner.Sweep
// over the BER points; every replica constructs its own world, so
// per-replica construction, kernel scheduling, hop and access-code
// trains, noisy bit flips and the pool hand-off dominate. It touches no
// netspec, data codec, spatial medium or checkpoint code.

// creationBERs are the sweep's points: a clean channel plus the paper's
// 1/100 .. 1/30.
var creationBERs = []float64{0, 1.0 / 100, 1.0 / 90, 1.0 / 80, 1.0 / 70, 1.0 / 60, 1.0 / 50, 1.0 / 40, 1.0 / 30}

const (
	// creationReplicas per BER point per sweep: 72 replicas, about
	// 45 ms of wall time at two workers.
	creationReplicas = 8
	// creationTimeout is the paper's inquiry and page timeout in slots.
	creationTimeout = 2048
	// benchWorkers is the runner pool size, sized for two cores.
	benchWorkers = 2
	// digestJobs is how many leading jobs of a run the output digest and
	// the exact counts cover; every run completes at least these.
	digestJobs = 8
)

type creationPoint struct {
	ber           float64
	master, slave baseband.BDAddr
}

// creationObs is one replica's outcome plus what the benchmark measured
// around it.
type creationObs struct {
	out              core.CreationOutcome
	slots            uint64
	tx, collisions   int
	txPkts, retrans  int
	construct, total time.Duration
	kernel           time.Duration
	err              string
}

type creation struct {
	seed   uint64
	hashes [digestJobs]string // output hash of each leading job
	counts jobCounts          // exact counts of the leading jobs
	next   int
}

// jobCounts are the exact counts of a run's leading jobs, with the host
// time their measured windows took.
type jobCounts struct {
	tx, collisions, txPkts, retrans int
	kernel                          time.Duration
}

func newCreation(seed uint64) *creation { return &creation{seed: seed} }

// inputs generates job k: a fresh device pair and replica seed base.
// Every job of a run has its own inputs, so a run averages over
// thousands of worlds instead of a few.
func (c *creation) inputs(k uint64) ([]creationPoint, uint64) {
	r := newRand(mix(c.seed, 0xc0, k))
	m, s := randAddr(r), randAddr(r)
	for s.LAP == m.LAP {
		s = randAddr(r)
	}
	pts := make([]creationPoint, len(creationBERs))
	for i, ber := range creationBERs {
		pts[i] = creationPoint{ber, m, s}
	}
	return pts, mix(c.seed, 0xc1, k)
}

// warmUp runs one sweep on inputs outside the timed sequence.
func (c *creation) warmUp() error {
	pts, base := c.inputs(1 << 40)
	if p := creationProblem(c.sweep(pts, base, nil, "warm-up")); p != "" {
		return fmt.Errorf("creation warm-up: %s", p)
	}
	return nil
}

func (c *creation) loop(deadline time.Time, t *tally, tr *tracer) {
	t.workers = benchWorkers
	t.begin()
	for time.Now().Before(deadline) || c.next < digestJobs {
		k := c.next
		c.next++
		op := ""
		if tr != nil {
			op = fmt.Sprintf("sweep %d", k)
		}
		pts, base := c.inputs(uint64(k))
		t0 := time.Now()
		rows := c.sweep(pts, base, tr, op)
		lat := time.Since(t0)

		var slots uint64
		n := 0
		for _, row := range rows {
			for _, o := range row {
				n++
				slots += o.slots
				t.busy += o.total
				t.constructUS = append(t.constructUS, float64(o.construct.Nanoseconds())/1e3)
				t.kernel += o.kernel
				t.kernelSlots += o.slots
			}
		}
		problem := creationProblem(rows)
		if k < digestJobs {
			c.hashes[k] = hashCreation(rows)
			for _, row := range rows {
				for _, o := range row {
					c.counts.add(o.tx, o.collisions, o.txPkts, o.retrans, o.kernel)
				}
			}
		}
		failed := 0
		if problem != "" {
			failed = n
		}
		t.job(lat, n, failed, n, slots, problem)
	}
}

func (j *jobCounts) add(tx, collisions, txPkts, retrans int, kernel time.Duration) {
	j.tx += tx
	j.collisions += collisions
	j.txPkts += txPkts
	j.retrans += retrans
	j.kernel += kernel
}

// sweep runs one runner.Sweep over the points with replica seeds
// derived from base.
func (c *creation) sweep(points []creationPoint, base uint64, tr *tracer, op string) [][]creationObs {
	parent := tr.begin("sweep", op, 0)
	defer tr.end(parent)
	sw := runner.Sweep[creationPoint, creationObs]{
		Name:     "creation",
		Points:   points,
		Replicas: creationReplicas,
		Seed:     func(p, r int) uint64 { return mix(base, uint64(p), uint64(r)) },
		Trial: func(seed uint64, p creationPoint) creationObs {
			return creationTrial(seed, p, tr, parent)
		},
	}
	return sw.Run(runner.Config{Workers: benchWorkers})
}

// creationTrial is one replica: construct the world and both devices,
// run inquiry then page, and read the counters.
func creationTrial(seed uint64, p creationPoint, tr *tracer, parent int) (o creationObs) {
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Sprint("panic: ", r)
		}
	}()
	op := ""
	if tr != nil {
		op = fmt.Sprintf("replica %016x", seed)
	}
	rep := tr.begin("replica", op, parent)
	defer tr.end(rep)
	t0 := time.Now()
	sp := tr.begin("construct", op, rep)
	s := core.NewSimulation(core.Options{Seed: seed, BER: p.ber})
	m := s.AddDevice("master", baseband.Config{Addr: p.master})
	sl := s.AddDevice("slave", baseband.Config{Addr: p.slave})
	tr.end(sp)
	t1 := time.Now()
	sp = tr.begin("run_creation", op, rep)
	o.out = s.RunCreation(m, sl, creationTimeout)
	tr.end(sp)
	t2 := time.Now()
	o.slots = s.Now()
	st := s.Ch.Stats()
	// The replica is its own window: every counter starts at zero when
	// the simulation and its devices are constructed.
	o.tx, o.collisions = st.Transmissions, st.Collisions
	o.txPkts, o.retrans = devCounters(s)
	o.construct, o.kernel, o.total = t1.Sub(t0), t2.Sub(t1), time.Since(t0)
	return o
}

// creationProblem checks every replica of a sweep and describes the
// first failure ("" when all pass). A piconet that does not form is a
// simulated result, not a failure (even a clean channel can miss the
// scan windows within the timeout); an impossible outcome is.
func creationProblem(rows [][]creationObs) string {
	for p, row := range rows {
		for r, o := range row {
			ber := creationBERs[p]
			switch {
			case o.err != "":
				return fmt.Sprintf("BER %.4f replica %d: %s", ber, r, o.err)
			case o.out.PageOK && !o.out.InquiryOK:
				return fmt.Sprintf("BER %.4f replica %d: page succeeded without inquiry", ber, r)
			case o.out.InquiryOK && (o.out.InquirySlots == 0 || o.out.InquirySlots > creationTimeout):
				return fmt.Sprintf("BER %.4f replica %d: inquiry took %d slots", ber, r, o.out.InquirySlots)
			case o.out.PageOK && o.out.PageSlots > creationTimeout:
				return fmt.Sprintf("BER %.4f replica %d: page took %d slots", ber, r, o.out.PageSlots)
			case o.slots == 0:
				return fmt.Sprintf("BER %.4f replica %d: simulated time did not advance", ber, r)
			}
		}
	}
	return ""
}

// hashCreation hashes a sweep's simulated outputs in [point][replica]
// order.
func hashCreation(rows [][]creationObs) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, row := range rows {
		for _, o := range row {
			put(boolBit(o.out.InquiryOK) | boolBit(o.out.PageOK)<<1)
			put(o.out.InquirySlots)
			put(o.out.PageSlots)
			put(o.slots)
			put(uint64(o.tx))
			put(uint64(o.collisions))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (c *creation) digest() string { return digestOf(c.hashes[:]) }

// check re-runs the first job and requires the same outputs.
func (c *creation) check() error {
	pts, base := c.inputs(0)
	if h := hashCreation(c.sweep(pts, base, nil, "")); h != c.hashes[0] {
		return fmt.Errorf("creation: re-running job 0 gave different outputs")
	}
	return nil
}

func (c *creation) layers(m metricSet, _ *tracer) error {
	c.counts.report(m)
	return nil
}

func (c *creation) memory() float64 { return peakRSSMiB() }

func (c *creation) close() {}
