package main

import "time"

// The benchmark times the program against a fixed computation of its own,
// the reference kernel, run between ops: one ref is the kernel's time
// right beside the step it measures. The machine the benchmark was built
// on slows a CPU by up to half for seconds at a time, and drifts by a
// fifth over minutes (README.md, "Stability and bounds"); the kernel slows
// with the step, so a time in refs stays put, while a change to the
// program moves the step alone.

// refSeconds is the length of a ref in setup_s: the reference kernel's
// time, rounded, on an idle core of the README's baseline machine.
const refSeconds = 100e-6

// refClock runs the reference kernel and converts wall times to refs.
type refClock struct {
	m     map[uint64]uint64
	sink  uint64
	last  time.Duration // the kernel's latest time
	total time.Duration // the kernel's summed time, which is also its CPU time
}

func newRefClock() *refClock {
	c := &refClock{m: make(map[uint64]uint64, 256)}
	c.total = c.kernel() // the first run brings the map to its working size
	c.last = c.kernel()
	c.total += c.last
	return c
}

// kernel runs the reference kernel once and returns how long it took:
// 10000 updates of a hash map over 256 pseudo-random keys, about 0.1 ms on
// an idle 2.1 GHz Xeon core. Of the kernels tried (this one over 4096
// keys plus a sort, a sort alone, pure arithmetic), hash-map work in the
// first-level cache, like much of the program's, slowed most nearly as
// the sweeps did.
func (c *refClock) kernel() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	clear(c.m)
	for range 10000 {
		x ^= x << 13 // xorshift64
		x ^= x >> 7
		x ^= x << 17
		c.m[x&255] += x
	}
	c.sink += uint64(len(c.m))
	return time.Since(t0)
}

// refs runs the kernel after a step that took d and returns d in refs:
// over the mean of the kernel's times just before and just after the step.
func (c *refClock) refs(d time.Duration) float64 {
	before := c.last
	c.last = c.kernel()
	c.total += c.last
	return 2 * float64(d) / float64(before+c.last)
}
