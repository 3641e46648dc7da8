package main

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"unsafe"
)

// The host this benchmark runs on is shared. How fast it runs the same
// code swings by ±20-35% within seconds and drifts by as much over
// minutes, with almost no steal time to show for it, so a wall-clock
// figure measures the neighbours as much as the program. The timed
// window is therefore cut into segments, and before and after each one,
// while the workload is drained, the benchmark measures the host's
// speed with a pace burst: two fixed reference kernels, each run on
// benchWorkers locked OS threads and timed in thread CPU time. The bursts
// run in a helper process (a pacer), so the fault kernel's pages never
// count toward the workload process's resident memory, and the benchmark
// process waits, idle, while one runs.
//
//   - The event kernel is a small discrete-event loop (a binary-heap
//     event queue, a map and a CRC over a packet-sized buffer) that
//     allocates nothing. It follows the processor's speed.
//   - The fault kernel maps fresh anonymous memory, writes one byte per
//     page so that the kernel must supply and zero every page, and
//     unmaps it. It follows the memory system, which the simulator's
//     allocation-heavy replicas lean on and the event kernel does not
//     touch.
//
// Both use only the Go standard library and system calls, never the
// repository's code, and neither touches the Go heap, so neither a change
// to the program nor its heap and collector can move them. Thread CPU
// time, not wall time, keeps the program's own goroutines (the
// collector's workers, the service's handlers) running beside a burst
// from reading as a slower host.
//
// A burst's speed is the geometric mean of the two kernels' rates, each
// divided by its nominal rate. Each timing in a segment is multiplied by
// the mean speed of the segment's two bursts, which gives it in
// reference seconds: the time the work would take on a host that runs
// both kernels at their nominal rates. Raw host times are printed beside
// them.
//
// On the 2-vCPU VM the benchmark was written on, over 80-150 s runs of
// creation and lowpower whose raw throughput swung by up to 2x, speed
// followed throughput over 10 s blocks. In some periods the event kernel
// alone matched it (correlation 0.76-0.97, slope 0.5-1.5); in others it
// missed most of a slowdown (correlation 0.47-0.85) that the fault
// kernel followed (0.82-0.98, slope 0.8-1.0). The geometric mean
// followed the latter as well (0.81-0.98).

// Nominal rates in ops per CPU second, summed over two workers: round
// figures near the kernels' rates on that VM. They only set the scale of
// reference seconds; both sides of a comparison share them, so only
// ratios of speeds matter.
const (
	paceEventNominal = 2500.0
	paceFaultNominal = 6000.0
)

// Burst sizes: ops per worker per burst (about 40 ms each at the
// nominal rates), and the size of one op of each kernel.
const (
	paceEventOps   = 48
	paceNodes      = 64
	paceEvents     = 4096
	paceFaultOps   = 120
	paceFaultBytes = 512 << 10
)

// paceEvent is one event of the event kernel's queue.
type paceEvent struct {
	at, seq uint64
	node    int
}

// paceQueue is a binary min-heap of events ordered by (at, seq).
type paceQueue []paceEvent

func (q paceQueue) less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].seq < q[j].seq)
}

// replaceTop swaps the earliest event for e and restores the heap.
func (q paceQueue) replaceTop(e paceEvent) {
	q[0] = e
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(q) && q.less(l, m) {
			m = l
		}
		if r < len(q) && q.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// paceEventOp is one op of the event kernel: paceEvents events over the
// nodes of q. Its result is returned so the compiler cannot drop the
// work.
func paceEventOp(seed uint64, q paceQueue, state map[int]uint64) uint64 {
	x := seed | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range q {
		q[i] = paceEvent{node: i}
	}
	var buf [32]byte
	var acc uint64
	for n := 0; n < paceEvents; n++ {
		e := q[0]
		v := next()
		state[e.node] += v
		for i := range buf {
			buf[i] = byte(v >> (i % 8 * 8))
		}
		acc += uint64(crc32.ChecksumIEEE(buf[:]))
		q.replaceTop(paceEvent{at: e.at + 1 + v%1250, seq: uint64(n), node: int(v % uint64(len(q)))})
	}
	return acc + state[0]
}

// paceFaultOp is one op of the fault kernel: map paceFaultBytes, write
// one byte per page, unmap.
func paceFaultOp(seed uint64) (uint64, error) {
	b, err := syscall.Mmap(-1, 0, paceFaultBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, err
	}
	for i := 0; i < len(b); i += 4096 {
		b[i] = byte(seed)
	}
	v := uint64(b[len(b)-1]) + uint64(b[0])
	return v, syscall.Munmap(b)
}

// paceSink keeps the kernels' results alive.
var paceSink [benchWorkers]uint64

// pace runs one burst and returns the host's speed (1 = nominal).
func pace() (float64, error) {
	var wg sync.WaitGroup
	event := make([]float64, benchWorkers)
	fault := make([]float64, benchWorkers)
	errs := make([]error, benchWorkers)
	for w := 0; w < benchWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			q := make(paceQueue, paceNodes)
			state := make(map[int]uint64, paceNodes)
			for i := 0; i < paceNodes; i++ {
				state[i] = 0
			}
			var sum uint64
			c0 := threadCPU()
			for i := 0; i < paceEventOps; i++ {
				sum += paceEventOp(uint64(w*paceEventOps+i+1), q, state)
			}
			c1 := threadCPU()
			for i := 0; i < paceFaultOps; i++ {
				v, err := paceFaultOp(uint64(i))
				if err != nil {
					errs[w] = err
					return
				}
				sum += v
			}
			c2 := threadCPU()
			event[w] = paceEventOps / (c1 - c0)
			fault[w] = paceFaultOps / (c2 - c1)
			paceSink[w] = sum
		}(w)
	}
	wg.Wait()
	var e, f float64
	for w := range event {
		if errs[w] != nil {
			return 0, fmt.Errorf("pace: %w", errs[w])
		}
		e += event[w]
		f += fault[w]
	}
	return math.Sqrt(e / paceEventNominal * f / paceFaultNominal), nil
}

// threadCPU is the calling OS thread's CPU time in seconds.
func threadCPU() float64 {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// pacer is a helper process of this binary that runs a pace burst for
// each line written to it and answers with the speed.
type pacer struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startPacer() (*pacer, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--pace-helper")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &pacer{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// speed runs one burst in the helper and returns its speed.
func (p *pacer) speed() (float64, error) {
	if _, err := io.WriteString(p.in, "burst\n"); err != nil {
		return 0, fmt.Errorf("pace helper: %w", err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("pace helper: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(line), 64)
}

// close ends the helper and waits for it to exit.
func (p *pacer) close() {
	p.in.Close()
	p.cmd.Wait()
}

// paceHelper is the helper process: one burst for each line on stdin,
// its speed on stdout, until stdin closes.
func paceHelper() error {
	r := bufio.NewReader(os.Stdin)
	for {
		if _, err := r.ReadString('\n'); err != nil {
			return nil
		}
		s, err := pace()
		if err != nil {
			return err
		}
		fmt.Println(strconv.FormatFloat(s, 'g', -1, 64))
	}
}
