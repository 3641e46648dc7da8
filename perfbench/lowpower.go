package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netspec"
	"repro/internal/runner"
)

// The lowpower workload is the paper's Figs 10-12 as one netspec world:
// four 7-slave piconets, one each in sniff (Tsniff 100), repeating hold,
// park, and idle active mode as the reference. A job is one
// runner.Sweep of lowpowerReplicas long replicas. Timer re-arm, the
// quiescence fast-forward and the power meters dominate; channel
// contention and payload codecs are light, so a codec or channel change
// should not move it.

const (
	lowpowerReplicas = 2
	// lowpowerWarmSlots run between Start and the measurement window:
	// several hold periods and park beacons.
	lowpowerWarmSlots = 2000
	// lowpowerSlots is each replica's measured horizon (62.5 s).
	lowpowerSlots = 100_000
)

// lowpowerModes names the probes, one per piconet in spec order.
var lowpowerModes = []string{"sniff", "hold", "park", "active"}

func lowpowerSpec() netspec.Spec {
	spec := netspec.Spec{
		Piconets: netspec.HomogeneousPiconets(4, 7),
		Modes: []netspec.PowerMode{
			{Kind: netspec.SniffMode, Piconet: 0, TsniffSlots: 100},
			{Kind: netspec.HoldMode, Piconet: 1},
			{Kind: netspec.ParkMode, Piconet: 2},
		},
	}
	for i, name := range lowpowerModes {
		spec.Probes = append(spec.Probes, netspec.Probe{Name: name, Kind: netspec.ProbeSlaveActivity, Piconet: i})
	}
	return spec
}

type lowpowerObs struct {
	m               netspec.Metrics
	slots           uint64
	tx, collisions  int
	txPkts, retrans int
	total, kernel   time.Duration
	err             string
}

type lowpower struct {
	seed   uint64
	spec   netspec.Spec
	hashes [digestJobs]string
	counts jobCounts
	next   int
}

func newLowpower(seed uint64) *lowpower {
	return &lowpower{seed: seed, spec: lowpowerSpec()}
}

func (l *lowpower) warmUp() error {
	if p := lowpowerProblem(l.job(1<<40, nil, "warm-up")); p != "" {
		return fmt.Errorf("lowpower warm-up: %s", p)
	}
	return nil
}

func (l *lowpower) loop(deadline time.Time, t *tally, tr *tracer) {
	t.workers = benchWorkers
	t.begin()
	for time.Now().Before(deadline) || l.next < digestJobs {
		k := l.next
		l.next++
		op := ""
		if tr != nil {
			op = fmt.Sprintf("job %d", k)
		}
		t0 := time.Now()
		obs := l.job(uint64(k), tr, op)
		lat := time.Since(t0)
		var slots uint64
		for _, o := range obs {
			slots += o.slots
			t.busy += o.total
			t.kernel += o.kernel
			t.kernelSlots += lowpowerSlots
		}
		problem := lowpowerProblem(obs)
		if k < digestJobs {
			l.hashes[k] = hashLowpower(obs)
			for _, o := range obs {
				l.counts.add(o.tx, o.collisions, o.txPkts, o.retrans, o.kernel)
			}
		}
		failed := 0
		if problem != "" {
			failed = len(obs)
		}
		t.job(lat, len(obs), failed, len(obs), slots, problem)
	}
}

// job runs job k: one sweep of lowpowerReplicas worlds, each on its own
// seed, so a run averages over many worlds.
func (l *lowpower) job(k uint64, tr *tracer, op string) []lowpowerObs {
	parent := tr.begin("sweep", op, 0)
	defer tr.end(parent)
	base := mix(l.seed, 0x10, k)
	sw := runner.Sweep[netspec.Spec, lowpowerObs]{
		Name:     "lowpower",
		Points:   []netspec.Spec{l.spec},
		Replicas: lowpowerReplicas,
		Seed:     func(p, r int) uint64 { return mix(base, uint64(r)) },
		Trial: func(seed uint64, spec netspec.Spec) lowpowerObs {
			return lowpowerTrial(seed, spec, tr, parent)
		},
	}
	return sw.Run(runner.Config{Workers: benchWorkers})[0]
}

// lowpowerTrial builds, starts and warms one world, then measures
// lowpowerSlots.
func lowpowerTrial(seed uint64, spec netspec.Spec, tr *tracer, parent int) (o lowpowerObs) {
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
	s := core.NewSimulation(core.Options{Seed: seed})
	sp := tr.begin("build", op, rep)
	w, err := netspec.Build(s, spec)
	tr.end(sp)
	if err != nil {
		o.err = err.Error()
		return o
	}
	sp = tr.begin("start", op, rep)
	w.Start()
	tr.end(sp)
	sp = tr.begin("settle", op, rep)
	s.RunSlots(lowpowerWarmSlots)
	tr.end(sp)
	w.ResetMetrics()
	st0 := s.Ch.Stats()
	pkts0, retrans0 := devCounters(s)
	sp = tr.begin("run", op, rep)
	t1 := time.Now()
	s.RunSlots(lowpowerSlots)
	o.kernel = time.Since(t1)
	tr.end(sp)
	sp = tr.begin("metrics", op, rep)
	o.m = w.Metrics()
	tr.end(sp)
	o.slots = s.Now()
	st := s.Ch.Stats()
	o.tx, o.collisions = st.Transmissions-st0.Transmissions, st.Collisions-st0.Collisions
	pkts, retrans := devCounters(s)
	o.txPkts, o.retrans = pkts-pkts0, retrans-retrans0
	o.total = time.Since(t0)
	return o
}

// lowpowerProblem checks each replica: the window must have its full
// length and every low-power mode must keep its slaves' radios less
// active than the idle active-mode reference (the paper's saving).
func lowpowerProblem(obs []lowpowerObs) string {
	for r, o := range obs {
		if o.err != "" {
			return fmt.Sprintf("replica %d: %s", r, o.err)
		}
		if o.m.Slots != lowpowerSlots {
			return fmt.Sprintf("replica %d: window of %d slots, want %d", r, o.m.Slots, lowpowerSlots)
		}
		act := func(name string) float64 {
			p := o.m.Probes[name]
			return p.Tx.Mean() + p.Rx.Mean()
		}
		ref := act("active")
		if ref <= 0 {
			return fmt.Sprintf("replica %d: active-mode slaves show no radio activity", r)
		}
		for _, mode := range lowpowerModes[:3] {
			if a := act(mode); !(a < ref) {
				return fmt.Sprintf("replica %d: %s slave activity %.5f not below active %.5f", r, mode, a, ref)
			}
		}
	}
	return ""
}

func hashLowpower(obs []lowpowerObs) string {
	h := sha256.New()
	for _, o := range obs {
		b, err := json.Marshal(o.m)
		if err != nil {
			return "unmarshalable: " + err.Error()
		}
		h.Write(b)
		fmt.Fprintf(h, "|%d|%d|%d\n", o.slots, o.tx, o.collisions)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (l *lowpower) digest() string { return digestOf(l.hashes[:]) }

// check re-runs the first job and requires the same outputs.
func (l *lowpower) check() error {
	if h := hashLowpower(l.job(0, nil, "")); h != l.hashes[0] {
		return fmt.Errorf("lowpower: re-running job 0 gave different outputs")
	}
	return nil
}

func (l *lowpower) layers(m metricSet, _ *tracer) error {
	l.counts.report(m)
	return nil
}

func (l *lowpower) memory() float64 { return peakRSSMiB() }

func (l *lowpower) close() {}
