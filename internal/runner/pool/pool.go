// Package pool implements the fail-fast worker pool of the campaign
// runner (runner.Runner): a fixed set of goroutines drains an index stream, and the first error —
// or a context cancellation — stops dispatch immediately instead of
// draining the remaining jobs. In-flight jobs observe the cancellation
// through the ctx handed to them (the DES kernel polls it cooperatively),
// so even long simulations abort promptly.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Workers resolves the effective worker count Run will use for n jobs:
// workers <= 0 selects GOMAXPROCS, and the count is capped at n. Callers
// that size per-worker state (metrics, scratch buffers) use this to agree
// with Run on how many worker indices exist.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// Run executes fn(ctx, worker, i) for every index i in [0, n) on the
// given number of worker goroutines (workers <= 0 selects GOMAXPROCS).
// worker identifies the goroutine running the job, in [0, Workers(workers,
// n)); a given worker runs its jobs sequentially, so per-worker state
// needs no further synchronization. The first non-nil error cancels the
// ctx passed to the remaining jobs and stops dispatch; Run returns that
// first error after all workers have exited. If the parent ctx is
// canceled before all jobs complete, Run returns the ctx error. fn may be
// called concurrently and must be safe for that.
func Run(ctx context.Context, n, workers int, fn func(ctx context.Context, worker, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	// runJob is the pool's last-resort panic boundary: job code is
	// expected to contain its own panics (core's experiment boundary
	// does), but a panic that escapes anyway — from glue code around the
	// experiment, say — must kill the job, not the process.
	runJob := func(worker, idx int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("pool: job %d panicked: %v\n%s", idx, r, debug.Stack())
			}
		}()
		return fn(ctx, worker, idx)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for idx := range jobs {
				if ctx.Err() != nil {
					return
				}
				if err := runJob(worker, idx); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}

dispatch:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	// Distinguish "parent canceled" from "our own deferred cancel": the
	// parent's error is the only way ctx can be done here without a job
	// error having been recorded.
	return ctx.Err()
}
