package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/baseband"
	"repro/internal/core"
)

// mix hashes a seed and tags into one 64-bit seed (splitmix64 rounds),
// so every generated input is a pure function of the workload seed.
func mix(seed uint64, tags ...uint64) uint64 {
	x := seed
	for _, t := range tags {
		x = splitmix(x ^ splitmix(t+0x9e3779b97f4a7c15))
	}
	x = splitmix(x)
	if x == 0 {
		x = 1 // a zero seed means "derive one" to several layers
	}
	return x
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 stream for input generation.
type rng struct{ s uint64 }

func newRand(seed uint64) *rng { return &rng{seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix(r.s)
}

// randAddr draws a device address outside the reserved inquiry LAPs
// 0x9E8B00..0x9E8B3F.
func randAddr(r *rng) baseband.BDAddr {
	for {
		v := r.next()
		lap := uint32(v & 0xFFFFFF)
		if lap >= 0x9E8B00 && lap <= 0x9E8B3F {
			continue
		}
		return baseband.BDAddr{LAP: lap, UAP: uint8(v >> 24), NAP: uint16(v >> 32)}
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// digestOf hashes the per-entry output hashes of an input cycle; ""
// when some entry never ran.
func digestOf(hashes []string) string {
	h := sha256.New()
	for _, s := range hashes {
		if s == "" {
			return ""
		}
		h.Write([]byte(s))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// report adds the channel and baseband per-layer metrics.
func (j jobCounts) report(m metricSet) {
	m.add("channel.tx", float64(j.tx), "count")
	m.add("channel.collision_frac", ratio(j.collisions, j.tx), "frac")
	hostNS := 0.0
	if j.tx > 0 {
		hostNS = float64(j.kernel.Nanoseconds()) / float64(j.tx)
	}
	m.add("channel.host_ns_per_tx", hostNS, "ns")
	m.add("baseband.retransmit_frac", ratio(j.retrans, j.txPkts), "frac")
}

// devCounters sums the packets transmitted and the retransmissions
// over the simulation's devices (Device.Counters). The counters are
// cumulative, so a window's figures are the difference of two readings.
func devCounters(s *core.Simulation) (txPkts, retrans int) {
	for _, d := range s.Devices() {
		txPkts += d.Counters.TxPackets
		retrans += d.Counters.Retransmits
	}
	return txPkts, retrans
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// expectedJSON records, for the default seed, each workload's output
// digest and the per-layer counts that must repeat exactly.
//
//go:embed expected.json
var expectedJSON []byte

type expectation struct {
	Digest string             `json:"digest"`
	Counts map[string]float64 `json:"counts"`
}

func expected(workload string) (expectation, bool) {
	var all map[string]expectation
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return expectation{}, false
	}
	e, ok := all[workload]
	return e, ok
}

// checkExpected compares a default-seed run's digest with the recorded
// one.
func checkExpected(workload, digest string) error {
	e, ok := expected(workload)
	if !ok || e.Digest == "" {
		fmt.Printf("no recorded digest for %s\n", workload)
		return nil
	}
	if digest != e.Digest {
		return fmt.Errorf("simulation changed: %s output digest %s, recorded %s", workload, digest, e.Digest)
	}
	fmt.Printf("digest matches the recorded default-seed digest\n")
	return nil
}

// exactCounts are the per-layer metrics that are pure functions of the
// seed: a change that moves one changed the simulation, not its speed.
var exactCounts = []string{"channel.tx", "channel.collision_frac", "baseband.retransmit_frac", "netspec.ckpt_bytes", "simd.result_hit_frac"}

// checkExpectedCounts compares a traced default-seed run's exact counts
// with the recorded ones and lists each mismatch.
func checkExpectedCounts(workload string, m metricSet) []string {
	e, ok := expected(workload)
	if !ok {
		return nil
	}
	var bad []string
	for _, k := range exactCounts {
		want, ok := e.Counts[k]
		if !ok {
			continue
		}
		if got := m[k].Value; got != want {
			bad = append(bad, fmt.Sprintf("%s %s = %v, recorded %v", workload, k, got, want))
		}
	}
	return bad
}
