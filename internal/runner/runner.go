// Package runner is the campaign runtime of the ComFASE reproduction:
// it executes an attack-injection grid (Algorithm 1, Step-3/4) the way a
// production system has to — streaming, cancellable, shardable and
// resumable — while preserving the repo's core invariant that the same
// (config, seed) pair produces bit-for-bit identical results no matter
// how the work is scheduled.
//
//   - Streaming: classified results flow through pluggable Sinks (CSV
//     row-per-result, JSON lines, in-memory aggregate) as experiments
//     complete, released in deterministic grid order regardless of
//     worker completion order.
//   - Cancellable: the context threads down to the DES kernel, which
//     polls it every few thousand events, so even a mid-simulation abort
//     is prompt; sinks are flushed before Run returns, so partial
//     results survive.
//   - Shardable: Shard i/n deterministically partitions the grid so n
//     independent processes produce disjoint result files that
//     MergeResultFiles recombines into the byte-identical sequential
//     output.
//   - Resumable: Resume(ReadResults(file)) skips grid points a previous
//     (interrupted) run already completed and appends exactly the
//     missing rows.
//   - Checkpointed: experiments sharing an attackStartTime are scheduled
//     as one unit on one worker, which simulates their common fault-free
//     prefix once and forks each sibling from the snapshot
//     (core.GroupSession). The grid is start-major, so sharding and
//     resume keep siblings contiguous, and the release frontier still
//     emits rows in grid order — checkpointed and fresh campaigns
//     produce byte-identical outputs. Within a group, siblings sharing
//     an attack value are additionally ordered into duration chains
//     (ascending duration, experiment number as the tie-break — a total
//     order, so every schedule and shard derives the same trie shape)
//     and executed through the session's checkpoint trie: each sibling
//     simulates only the suffix past the previous duration boundary.
package runner

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"comfase/internal/core"
	"comfase/internal/obs"
	"comfase/internal/runner/pool"
	"comfase/internal/sim/des"
)

// ErrFailureBudget is wrapped by Run's error when persistent experiment
// failures exceed Options.MaxFailures. The triggering experiment error is
// wrapped alongside it, so both errors.Is(err, ErrFailureBudget) and
// errors.Is(err, <cause>) hold.
var ErrFailureBudget = errors.New("runner: failure budget exceeded")

// Shard selects a deterministic 1-based slice i/n of the campaign grid:
// the grid points whose expNr ≡ Index-1 (mod Count). Round-robin
// assignment balances the load even when severity (and therefore cost)
// clusters in one region of the grid. The zero value disables sharding.
type Shard struct {
	// Index is 1-based: 1 <= Index <= Count.
	Index int
	// Count is the total number of shards.
	Count int
}

// ParseShard parses the CLI form "i/n" (e.g. "2/4").
func ParseShard(s string) (Shard, error) {
	var sh Shard
	if _, err := fmt.Sscanf(s, "%d/%d", &sh.Index, &sh.Count); err != nil {
		return Shard{}, fmt.Errorf("runner: shard %q is not of the form i/n", s)
	}
	if err := sh.Validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

// Validate reports whether the shard designator is well-formed.
func (s Shard) Validate() error {
	if s.Count == 0 && s.Index == 0 {
		return nil // disabled
	}
	if s.Count < 1 || s.Index < 1 || s.Index > s.Count {
		return fmt.Errorf("runner: invalid shard %d/%d (want 1 <= i <= n)", s.Index, s.Count)
	}
	return nil
}

// Enabled reports whether the shard restricts the grid.
func (s Shard) Enabled() bool { return s.Count > 0 }

// Range restricts execution to the contiguous expNr interval [From, To).
// It is the selection primitive of the fabric layer: a coordinator leases
// contiguous grid ranges to worker processes, and each worker runs its
// lease as Options.Range. The zero value disables the restriction. Range
// composes with Shard (both filters apply), though the fabric uses Range
// alone.
type Range struct {
	// From is the first expNr included.
	From int
	// To is the first expNr excluded; To > From for a non-empty range.
	To int
}

// Enabled reports whether the range restricts the grid.
func (r Range) Enabled() bool { return r.From != 0 || r.To != 0 }

// Validate reports whether the range designator is well-formed.
func (r Range) Validate() error {
	if !r.Enabled() {
		return nil
	}
	if r.From < 0 || r.To < r.From {
		return fmt.Errorf("runner: invalid range [%d,%d)", r.From, r.To)
	}
	return nil
}

// Contains reports whether the grid point with the given expNr belongs
// to this range.
func (r Range) Contains(nr int) bool {
	if !r.Enabled() {
		return true
	}
	return nr >= r.From && nr < r.To
}

// String renders the half-open interval.
func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.From, r.To) }

// Contains reports whether the grid point with the given expNr belongs
// to this shard.
func (s Shard) Contains(nr int) bool {
	if !s.Enabled() {
		return true
	}
	return nr%s.Count == s.Index-1
}

// String renders the CLI form.
func (s Shard) String() string {
	if !s.Enabled() {
		return "1/1"
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// Options configure a Runner.
type Options struct {
	// Workers is the number of concurrent experiment goroutines
	// (<= 0 selects GOMAXPROCS).
	Workers int
	// Shard restricts execution to a deterministic grid slice; the zero
	// value runs the whole grid.
	Shard Shard
	// Range restricts execution to the contiguous expNr interval
	// [From, To) — the unit a fabric coordinator leases to one worker.
	// The zero value runs the whole grid; when both Shard and Range are
	// set, a grid point must satisfy both.
	Range Range
	// Progress, when set, receives (done, total) after every completed
	// experiment. done is monotonically increasing and counts resumed
	// grid points; total is the shard's grid size. Invocation order is
	// completion order, not grid order, and the callback runs under the
	// runner's lock — keep it fast.
	Progress core.Progress
	// Resume maps expNr -> already-classified result from a previous
	// interrupted run (see ReadResults). Those grid points are not
	// re-executed and not re-emitted to sinks; they do appear in the
	// returned CampaignResult.
	Resume map[int]core.ExperimentResult

	// Retries is how many times a failed experiment is re-executed
	// before it is quarantined (0 = no retries). Every attempt runs on a
	// fresh workspace, so transient corruption does not leak between
	// attempts.
	Retries int
	// RetryBackoff is the base pause before retry k (linear: the k-th
	// retry waits k*RetryBackoff). Zero retries immediately.
	RetryBackoff time.Duration
	// ExperimentTimeout is the per-attempt wall-clock watchdog: an
	// attempt exceeding it is aborted (the DES kernel polls the deadline
	// cooperatively) and counts as a "timeout"-class failure. Zero
	// disables the watchdog.
	ExperimentTimeout time.Duration
	// MaxFailures is the campaign failure budget: the number of
	// persistently failed (all retries exhausted) experiments tolerated
	// before the run aborts with an error wrapping ErrFailureBudget.
	// 0 — the default — is fail-fast: the first persistent failure
	// aborts. Negative means unlimited: the campaign always streams past
	// failures. Failed grid points are quarantined, excluded from the
	// result sinks and CampaignResult.Experiments, and never block the
	// release frontier.
	MaxFailures int
	// Quarantine, when set, receives the record of every persistent
	// failure in grid order (quarantine.jsonl via NewQuarantineSink).
	Quarantine FailureSink
	// ResumeFailures maps expNr -> quarantine record from a previous run
	// (see ReadQuarantine). Those grid points are not re-executed and
	// not re-emitted to the quarantine sink; they reappear in
	// CampaignResult.Failures but do not count against MaxFailures
	// (this run's budget governs this run's new failures). Delete the
	// quarantine file to retry them.
	ResumeFailures map[int]core.ExperimentFailure

	// Metrics, when set, receives runner-level counters and gauges
	// (retries, per-class failures, emitted rows, sink flushes, shard
	// progress, per-worker throughput). Pass the same registry to
	// core.EngineConfig.Metrics for the full stack view. nil disables
	// runner metrics; execution and outputs are bit-identical either way.
	Metrics *obs.Registry

	// DisableCheckpoints turns off prefix-checkpoint forking: every
	// experiment then builds and simulates from t=0 (the pre-checkpoint
	// execution path). The zero value — checkpoints enabled — is right
	// for production campaigns: results are bit-identical either way and
	// forking skips the redundant shared prefixes. Configurations the
	// checkpoint layer cannot capture (fading channels, opaque custom
	// controllers) fall back to the fresh path automatically.
	DisableCheckpoints bool
	// DisableTrie turns off duration chaining within checkpoint groups:
	// every sibling then forks from the group's prefix checkpoint in grid
	// order (the pre-trie behaviour). Only meaningful while checkpoints
	// are enabled. The zero value — trie enabled — buckets each group
	// into per-value chains sorted by ascending duration and shares the
	// attacked interval between chain members; results are bit-identical
	// either way, and models that cannot chain (stochastic ones,
	// physical-layer Installers) fall back to prefix forking
	// automatically.
	DisableTrie bool
}

// Runner executes campaign grids against a core.Engine.
type Runner struct {
	eng   *core.Engine
	opts  Options
	sinks []Sink
	met   runnerMetrics
}

// New validates the options and returns a Runner streaming to the given
// sinks (none is fine: the returned CampaignResult still aggregates
// everything).
func New(eng *core.Engine, opts Options, sinks ...Sink) (*Runner, error) {
	if eng == nil {
		return nil, fmt.Errorf("runner: nil engine")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &Runner{eng: eng, opts: opts, sinks: sinks, met: newRunnerMetrics(opts.Metrics)}, nil
}

// validate checks the grid selection designators.
func (o Options) validate() error {
	if err := o.Shard.Validate(); err != nil {
		return err
	}
	return o.Range.Validate()
}

// slot tracks one shard grid point through the run. A slot holds either
// a classified result or — for a persistently failed experiment — its
// quarantine record; either way done flips and the release frontier
// advances past it.
type slot struct {
	res      core.ExperimentResult
	failure  *core.ExperimentFailure
	done     bool // outcome available (computed, resumed or failed)
	skipEmit bool // resumed from a previous run, or already force-emitted
}

// Run executes the (sharded) campaign grid. Newly computed results are
// released to the sinks in grid order as soon as the contiguous prefix
// they belong to completes; on any error — including ctx cancellation —
// sinks are flushed before Run returns, so everything emitted so far is
// durable and a later Resume run can pick up from it.
//
// The returned CampaignResult covers this shard's grid points in grid
// order (resumed ones included) and is bit-for-bit identical for
// sequential, parallel and resumed executions of the same (config,
// seed) grid.
func (r *Runner) Run(ctx context.Context, setup core.CampaignSetup) (*core.CampaignResult, error) {
	if err := setup.Validate(); err != nil {
		return nil, err
	}
	// Prime the golden run before spawning workers: the cached log is
	// shared read-only by every experiment.
	if err := r.eng.EnsureGolden(ctx); err != nil {
		return nil, err
	}
	cells := []*cellRun{{setup: setup, eng: &scenarioEngine{eng: r.eng, keep: true}, wrap: func(err error) error { return err }}}
	results, err := r.run(ctx, cells, r.opts.selectGrid(cells))
	if err != nil {
		return nil, err
	}
	out := results[0]
	out.Golden, _ = r.eng.Golden()
	out.Thresholds = r.eng.Thresholds()
	return out, nil
}

// cellRun is one cell's part of a run: its campaign grid, its scenario's
// engine, how its errors are labeled, and the range [lo, hi) of run slots
// its shard-selected grid points occupy.
type cellRun struct {
	setup  core.CampaignSetup
	eng    *scenarioEngine
	wrap   func(error) error
	lo, hi int
}

// selectGrid lays the cells' shard- and range-selected grid points out in
// cell order, recording each cell's slot range.
func (o Options) selectGrid(cells []*cellRun) []core.ExperimentSpec {
	var specs []core.ExperimentSpec
	for _, c := range cells {
		c.lo = len(specs)
		for _, spec := range c.setup.Experiments() {
			if o.Shard.Contains(spec.Nr) && o.Range.Contains(spec.Nr) {
				specs = append(specs, spec)
			}
		}
		c.hi = len(specs)
	}
	return specs
}

// runGroup is one scheduling unit: the pending grid points of one cell
// that share an attack start time, in grid order.
type runGroup struct {
	cell *cellRun
	idx  []int
}

// run executes the selected grid points of cells (selectGrid) as one
// work queue: every cell's same-start groups go to one worker pool in
// grid order, and one release frontier emits rows and quarantine
// records in global grid order. A worker that finishes a
// cell's last group moves straight on to the next cell's groups; no cell
// waits for the previous one to drain. The failure budget, Progress and
// the shard gauges count the whole run. It returns each cell's result in
// grid order, without the golden-run fields, which the caller fills in.
func (r *Runner) run(ctx context.Context, cells []*cellRun, specs []core.ExperimentSpec) ([]*core.CampaignResult, error) {
	total := len(specs)

	slots := make([]slot, total)
	var todo []int // indices into specs still to execute
	for i, spec := range specs {
		if res, ok := r.opts.Resume[spec.Nr]; ok {
			slots[i] = slot{res: res, done: true, skipEmit: true}
		} else if f, ok := r.opts.ResumeFailures[spec.Nr]; ok {
			fc := f
			slots[i] = slot{failure: &fc, done: true, skipEmit: true}
		} else {
			todo = append(todo, i)
		}
	}

	var (
		mu       sync.Mutex
		next     int // emission frontier: slots[0:next] released to sinks
		done     = total - len(todo)
		failures int // persistent failures this run (resumed ones excluded)
	)
	r.met.shardTotal.Set(int64(total))
	r.met.shardDone.Set(int64(done))
	// release emits the contiguous completed prefix — results to the
	// sinks, quarantine records to the failure sink; the caller holds mu.
	release := func() error {
		for next < total && slots[next].done {
			s := &slots[next]
			switch {
			case s.skipEmit:
			case s.failure != nil:
				if r.opts.Quarantine != nil {
					if err := r.opts.Quarantine.Put(*s.failure); err != nil {
						return fmt.Errorf("runner: quarantine sink: %w", err)
					}
				}
				r.met.quarantined.Inc()
			default:
				for _, snk := range r.sinks {
					if err := snk.Put(s.res); err != nil {
						return fmt.Errorf("runner: sink: %w", err)
					}
				}
				r.met.results.Inc()
			}
			next++
		}
		return nil
	}

	// complete records one finished grid point (success or persistent
	// failure), advances the release frontier and enforces the failure
	// budget. It is the single completion path for grouped and fresh
	// execution alike.
	complete := func(idx int, res core.ExperimentResult, attempts int, runErr error) error {
		mu.Lock()
		defer mu.Unlock()
		if runErr != nil {
			fail := core.NewExperimentFailure(specs[idx], runErr, attempts)
			slots[idx] = slot{failure: &fail, done: true}
			r.met.failure(fail.Class)
			failures++
			overBudget := r.opts.MaxFailures >= 0 && failures > r.opts.MaxFailures
			done++
			r.met.shardDone.Set(int64(done))
			if relErr := release(); relErr != nil {
				return relErr
			}
			if overBudget {
				// Aborting: force the triggering record out if the
				// frontier has not reached it, so the quarantine file
				// explains the abort even when earlier grid points are
				// still in flight.
				if idx >= next && r.opts.Quarantine != nil {
					slots[idx].skipEmit = true
					if qerr := r.opts.Quarantine.Put(fail); qerr != nil {
						return fmt.Errorf("runner: quarantine sink: %w", qerr)
					}
				}
				return fmt.Errorf("%w: %d persistent failure(s) over budget %d; experiment %v: %w",
					ErrFailureBudget, failures, r.opts.MaxFailures, specs[idx], runErr)
			}
			if r.opts.Progress != nil {
				r.opts.Progress(done, total)
			}
			return nil
		}
		slots[idx] = slot{res: res, done: true}
		done++
		r.met.shardDone.Set(int64(done))
		if relErr := release(); relErr != nil {
			return relErr
		}
		if r.opts.Progress != nil {
			r.opts.Progress(done, total)
		}
		return nil
	}

	mu.Lock()
	err := release() // resumed prefix advances the frontier immediately
	if err == nil && done > 0 && r.opts.Progress != nil {
		r.opts.Progress(done, total)
	}
	mu.Unlock()

	// Schedule contiguous same-start runs of each cell's remaining grid
	// as one unit each, so siblings land on the same worker and can fork
	// from that worker's prefix checkpoint. The grid is start-major, so
	// the runs survive shard filtering and resume holes intact.
	var groups []runGroup
	for _, c := range cells {
		lo, hi := sort.SearchInts(todo, c.lo), sort.SearchInts(todo, c.hi)
		cellGroups := groupByStart(specs, todo[lo:hi])
		c.eng.groups += len(cellGroups) // no worker runs yet
		for _, g := range cellGroups {
			groups = append(groups, runGroup{cell: c, idx: g})
		}
	}

	if err == nil {
		err = pool.Run(ctx, len(groups), r.opts.Workers, func(ctx context.Context, worker, g int) error {
			group := groups[g]
			c := group.cell
			eng, err := c.eng.acquire(ctx)
			if err != nil {
				return c.wrap(err)
			}
			defer c.eng.groupDone()
			// One registry lookup per scheduling unit; nil when metrics are
			// off, and increments are then no-ops.
			wc := r.met.worker(worker)
			var gs *core.GroupSession
			if !r.opts.DisableCheckpoints && len(group.idx) > 1 {
				gs = r.beginGroup(ctx, eng, specs[group.idx[0]].Start)
				if gs != nil {
					defer gs.Close()
				}
				if cerr := ctx.Err(); cerr != nil {
					return c.wrap(cerr)
				}
			}
			// With a live session and the trie enabled, execute the group as
			// per-value duration chains; otherwise keep the grid-order walk.
			// Either way the release frontier restores grid order on output.
			chained := gs != nil && !r.opts.DisableTrie
			order := [][]int{group.idx}
			if chained {
				order = orderGroupChains(specs, group.idx)
			}
			for _, chain := range order {
				for i, idx := range chain {
					retain := chained && i+1 < len(chain)
					res, attempts, runErr := r.runWithRetry(ctx, eng, specs[idx], gs, chained, retain)
					if runErr != nil && ctx.Err() != nil {
						// Campaign-level cancellation, not an experiment failure.
						return c.wrap(fmt.Errorf("experiment %v: %w", specs[idx], runErr))
					}
					wc.Inc()
					if cerr := complete(idx, res, attempts, runErr); cerr != nil {
						return c.wrap(cerr)
					}
				}
			}
			return nil
		})
	}

	// Flush sinks even on abort: partial results must be durable for the
	// resume path. The first flush error is reported only when the run
	// itself succeeded.
	for _, s := range r.sinks {
		if ferr := s.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("runner: sink flush: %w", ferr)
		}
		r.met.flushes.Inc()
	}
	if r.opts.Quarantine != nil {
		if ferr := r.opts.Quarantine.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("runner: quarantine flush: %w", ferr)
		}
		r.met.flushes.Inc()
	}
	if err != nil {
		return nil, err
	}

	out := make([]*core.CampaignResult, len(cells))
	for i, c := range cells {
		res := &core.CampaignResult{Setup: c.setup, Experiments: make([]core.ExperimentResult, 0, c.hi-c.lo)}
		for _, s := range slots[c.lo:c.hi] {
			if f := s.failure; f != nil {
				res.Failures = append(res.Failures, *f)
				class, cerr := core.ParseFailureClass(f.Class)
				if cerr != nil {
					class = core.FailError
				}
				res.FailureCounts.Add(class)
				continue
			}
			res.Experiments = append(res.Experiments, s.res)
			res.Counts.Add(s.res.Outcome)
		}
		out[i] = res
	}
	return out, nil
}

// groupByStart slices the pending grid indices into contiguous runs
// sharing an attack start time. todo is ascending and the grid is
// start-major, so equal-start siblings are adjacent; each returned group
// becomes one scheduling unit (one prefix checkpoint).
func groupByStart(specs []core.ExperimentSpec, todo []int) [][]int {
	var groups [][]int
	for i := 0; i < len(todo); {
		j := i + 1
		start := specs[todo[i]].Start
		for j < len(todo) && specs[todo[j]].Start == start {
			j++
		}
		groups = append(groups, todo[i:j])
		i = j
	}
	return groups
}

// orderGroupChains buckets one same-start group into the value chains of
// the checkpoint trie: one bucket per attack value, buckets in
// first-appearance (grid) order, each bucket sorted by ascending attack
// duration with the experiment number as the tie-break. The sort key
// (duration, expNr) is a total order over the group, so sequential,
// parallel, sharded and resumed runs all derive the identical chain shape
// from whatever subset of the grid they hold. Values are compared as
// float64 bit patterns via ==; a NaN attack value never equals itself and
// therefore forms single-element buckets, which degrade to plain prefix
// forks rather than corrupt a chain.
func orderGroupChains(specs []core.ExperimentSpec, group []int) [][]int {
	byValue := make(map[float64]int)
	var chains [][]int
	for _, idx := range group {
		v := specs[idx].Value
		b, ok := byValue[v]
		if !ok {
			b = len(chains)
			byValue[v] = b
			chains = append(chains, nil)
		}
		chains[b] = append(chains[b], idx)
	}
	for _, c := range chains {
		sort.Slice(c, func(i, j int) bool {
			if specs[c[i]].Duration != specs[c[j]].Duration {
				return specs[c[i]].Duration < specs[c[j]].Duration
			}
			return specs[c[i]].Nr < specs[c[j]].Nr
		})
	}
	return chains
}

// beginGroup checkpoints the fault-free prefix at start, applying the
// same wall-clock watchdog a fresh attempt would get. Any error — a
// non-checkpointable configuration, a prefix failure, a prefix timeout —
// selects the fresh-build fallback by returning nil: the group then runs
// exactly as it would with checkpoints disabled. Campaign cancellation
// is the caller's to detect via ctx.Err().
func (r *Runner) beginGroup(ctx context.Context, eng *core.Engine, start des.Time) *core.GroupSession {
	prefixCtx, cancel := ctx, func() {}
	if r.opts.ExperimentTimeout > 0 {
		prefixCtx, cancel = context.WithTimeout(ctx, r.opts.ExperimentTimeout)
	}
	gs, err := eng.BeginGroup(prefixCtx, start)
	cancel()
	if err != nil {
		return nil
	}
	return gs
}

// runWithRetry executes one grid point with the per-attempt wall-clock
// watchdog and the retry policy: up to 1+Retries attempts with linear
// backoff between them. When the worker holds a healthy group session,
// the first attempt forks from its checkpoint (through the duration
// chain when chained is set; retain asks the session to keep a boundary
// snapshot for the next chain member); retries — and the first attempt
// once a sibling has poisoned the session — run on a fresh workspace, so
// transient corruption does not leak between attempts and attempt counts
// match the checkpoint-disabled path exactly. It returns the result of
// the first successful attempt, or — after exhausting every attempt —
// the final error. Campaign-level cancellation surfaces as an error too;
// the caller distinguishes it via ctx.Err().
func (r *Runner) runWithRetry(ctx context.Context, eng *core.Engine, spec core.ExperimentSpec, gs *core.GroupSession, chained, retain bool) (core.ExperimentResult, int, error) {
	attempts := 1 + r.opts.Retries
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for a := 1; a <= attempts; a++ {
		if a > 1 {
			if err := sleepCtx(ctx, time.Duration(a-1)*r.opts.RetryBackoff); err != nil {
				return core.ExperimentResult{}, a - 1, lastErr
			}
			r.met.retries.Inc()
		}
		attemptCtx, cancel := ctx, func() {}
		if r.opts.ExperimentTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, r.opts.ExperimentTimeout)
		}
		var res core.ExperimentResult
		var err error
		if a == 1 && gs != nil && gs.Healthy() {
			if chained {
				res, err = gs.RunExperimentChained(attemptCtx, spec, retain)
			} else {
				res, err = gs.RunExperiment(attemptCtx, spec)
			}
		} else {
			res, err = eng.RunExperimentCtx(attemptCtx, spec)
		}
		cancel()
		if err == nil {
			return res, a, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The campaign is shutting down; do not burn retries on it.
			return core.ExperimentResult{}, a, lastErr
		}
	}
	return core.ExperimentResult{}, attempts, lastErr
}

// sleepCtx pauses for d unless ctx is canceled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
