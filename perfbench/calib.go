package main

import "time"

// The benchmark runs on shared hosts whose speed drifts by a third or
// more over minutes, for any code at once: on a 2-vCPU Xeon VM, whole
// 25 s invocations of the same workload ran 30-45% apart, and a fixed
// loop of plain Go timed alongside them drifted with them. Medians
// within an invocation cannot remove a drift that lasts longer than it.
// So every timed end-to-end figure is scaled to a reference host speed:
// a calibration loop that never changes runs just before and just after
// every timed pass and every set-up repetition, and the invocation's
// median host times are multiplied by refCalib over the mean time of the
// calibrations around that kind of work. The unscaled times and the
// calibration times go to the result document.

// refCalib is the calibration loop's typical time on the 2-vCPU Xeon VM
// the benchmark was written on. It fixes the unit of the scaled
// figures; it does not change any ratio between them.
const refCalib = 30 * time.Millisecond

const (
	calibTableLen = 1 << 15 // 256 KiB of uint64s
	calibHeapLen  = 1 << 13
	calibSteps    = 600_000
)

// calibrator is a fixed, allocation-free piece of work shaped like the
// simulator's: a binary min-heap kept at a steady size, as an event
// queue is, and random reads and writes over a table. It calls no code
// of the simulator, and it reads its whole table before it starts the
// clock, so its working set is in the core's private caches whatever
// the timed work left there: no change to the simulator moves its time.
type calibrator struct {
	table []uint64
	heap  []uint64
	sink  uint64
}

func newCalibrator() *calibrator {
	return &calibrator{table: make([]uint64, calibTableLen), heap: make([]uint64, 0, calibHeapLen)}
}

// run does the fixed work once and returns its host time.
func (c *calibrator) run() time.Duration {
	for _, v := range c.table {
		c.sink += v
	}
	t := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	h := c.heap[:0]
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.table[x&(calibTableLen-1)] += x
		if len(h) < calibHeapLen {
			h = heapPush(h, x)
		} else {
			c.sink += h[0]
			h = heapPop(h)
		}
	}
	c.heap = h[:0]
	return time.Since(t)
}

func heapPush(h []uint64, x uint64) []uint64 {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []uint64) []uint64 {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, s := 2*i+1, i
		if l < n && h[l] < h[s] {
			s = l
		}
		if r := l + 1; r < n && h[r] < h[s] {
			s = r
		}
		if s == i {
			return h
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}
