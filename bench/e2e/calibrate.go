package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The host the benchmark runs on is shared: neighbouring load slows the
// same iteration by up to 2x for minutes at a time, far beyond any bound
// a regression check could use. Every end-to-end time is therefore
// calibrated to host speed. Right before each iteration, and once after
// the last, the driver times a fixed kernel on every CPU at once. The
// kernel is part of this driver, not of comfase, so it executes the same
// instructions at every commit. It walks an 8 MB table per CPU with a few
// floating-point updates per step, because comfase's slowdowns follow
// memory contention: a cache-resident kernel tracked them worse. An
// iteration's times are scaled by calibrationRef over the mean of the
// kernel times before and after it, so they read as seconds on the
// baseline host when it is quiet.

// calibrationRef is the kernel's time on the baseline host (2-vCPU Intel
// Xeon VM, see results/) when it is quiet.
const calibrationRef = 0.35

// calibrationSteps is the kernel's step count per CPU. Shorter kernels
// read the host's speed less precisely than the iterations they scale.
const calibrationSteps = 3_000_000

// calibrator owns the kernel's tables, one per CPU.
type calibrator struct {
	tables [][]body
}

// body is one kernel table entry, padded to a cache line.
type body struct {
	x, v, a, t float64
	next       int32
	_          [28]byte
}

func newCalibrator() *calibrator {
	c := &calibrator{tables: make([][]body, runtime.GOMAXPROCS(0))}
	for g := range c.tables {
		t := make([]body, 1<<17)
		for i := range t {
			// An odd multiplier makes i -> next a permutation of the table.
			t[i].next = int32((uint64(i)*2654435761 + uint64(g)*7919 + 12345) % uint64(len(t)))
			t[i].v = float64(i % 31)
		}
		c.tables[g] = t
	}
	return c
}

// measure runs the kernel on every table at once and returns the seconds
// until all have finished.
func (c *calibrator) measure() float64 {
	start := time.Now()
	sums := make([]float64, len(c.tables))
	var wg sync.WaitGroup
	for g := range c.tables {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sums[g] = kernel(c.tables[g], calibrationSteps)
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, s := range sums {
		if math.IsNaN(s) {
			panic("calibration kernel diverged") // its updates are bounded; only a bug gets here
		}
	}
	return elapsed
}

func kernel(t []body, steps int) float64 {
	j := int32(0)
	sum := 0.0
	for i := 0; i < steps; i++ {
		b := &t[j]
		b.a = math.Sin(b.x*1e-3) - 0.1*b.v
		b.v += b.a * 0.01
		b.x += b.v * 0.01
		if i%8 == 0 {
			sum += math.Log1p(math.Abs(b.v)) + math.Exp(-b.t)
		}
		b.t += 0.01
		j = b.next
	}
	return sum
}
