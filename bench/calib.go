package main

import (
	"iter"
	"slices"
	"time"
)

// calRefNs is the calibration kernel's median time on the reference
// machine at rest (a 2-vCPU Intel Xeon VM, Go 1.24). End-to-end timings
// are scaled by calRefNs over the kernel's time measured next to them.
const calRefNs = 40000

// calEvery is how often a round re-measures the machine's speed.
const calEvery = 20 * time.Millisecond

// calSample is one measurement of the machine's speed, taken after op Op.
type calSample struct {
	Op int   `json:"op"`
	Ns int64 `json:"ns"`
}

// calibrator times a fixed kernel that does the kind of work the
// simulator does — coroutine handoffs, a binary heap and xorshift draws —
// without calling the repository's code, so a change to the simulator
// never moves it while a busy machine slows both. Its coroutine is built
// once, so a measurement allocates nothing.
type calibrator struct {
	next func() (int, bool)
	stop func()
	heap [64]uint64
	x    uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{x: 0x9e3779b97f4a7c15}
	c.next, c.stop = iter.Pull(func(yield func(int) bool) {
		for i := 0; yield(i); i++ {
		}
	})
	return c
}

// measure runs the kernel three times and returns its median time in ns.
func (c *calibrator) measure() int64 {
	var ns [3]int64
	for k := range ns {
		t0 := time.Now()
		for i := 0; i < 300; i++ {
			v, _ := c.next()
			c.x ^= c.x << 13
			c.x ^= c.x >> 7
			c.x ^= c.x << 17
			j := i % len(c.heap)
			c.heap[j] = c.x + uint64(v)
			for j > 0 && c.heap[(j-1)/2] > c.heap[j] {
				c.heap[(j-1)/2], c.heap[j] = c.heap[j], c.heap[(j-1)/2]
				j = (j - 1) / 2
			}
		}
		ns[k] = time.Since(t0).Nanoseconds()
	}
	slices.Sort(ns[:])
	return ns[1]
}

// calMedianUs is a round's median calibration time in µs.
func calMedianUs(rr roundResult) float64 {
	ns := make([]float64, len(rr.Cal))
	for i, c := range rr.Cal {
		ns[i] = float64(c.Ns) / 1e3
	}
	return median(ns)
}

// scaled returns a round's op latencies (ms) scaled to the reference
// speed: op k is scaled by the last sample taken before it started.
func scaled(rr roundResult) []float64 {
	out := toMs(rr.LatNs)
	s := 0
	for j := range out {
		op := j + 1 // LatNs[j] is op j+1
		for s+1 < len(rr.Cal) && rr.Cal[s+1].Op < op {
			s++
		}
		out[j] *= calRefNs / float64(rr.Cal[s].Ns)
	}
	return out
}
