package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"comfase/internal/classify"
	"comfase/internal/nic"
	"comfase/internal/obs"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
	"comfase/internal/trace"
	"comfase/internal/traffic"
)

// EngineConfig assembles everything an attack campaign needs.
type EngineConfig struct {
	// Scenario is the Step-1 traffic configuration.
	Scenario scenario.TrafficScenario
	// Comm is the Step-1 communication configuration.
	Comm scenario.CommModel
	// Controllers builds follower controllers per platoon index; nil
	// defaults to the paper's CACC.
	Controllers scenario.ControllerFactory
	// Seed drives every stochastic component. Identical (config, seed)
	// pairs reproduce identical campaigns.
	Seed uint64
	// Thresholds override the classification parameters; zero value
	// means "derive from the golden run per §IV-B".
	Thresholds *classify.Thresholds
	// CancelCheckEvents is the cooperative-cancellation poll granularity
	// of the DES kernel: when a Ctx variant runs with a cancelable
	// context, the kernel checks it every this many events. Zero selects
	// des.DefaultInterruptEvery.
	CancelCheckEvents uint64
	// Invariants enables the per-step runtime sanity checks of
	// internal/invariant in every simulation this engine builds. A
	// violation aborts the experiment with an error wrapping
	// invariant.ErrInvariant instead of silently producing a bogus
	// classification.
	Invariants bool
	// EventBudget, when non-zero, caps the kernel events any single
	// simulation may deliver. An experiment whose event loop runs away
	// (a buggy attack model rescheduling itself at the current time, for
	// example) aborts deterministically with des.ErrBudgetExceeded
	// instead of hanging the worker. The budget is checked on the same
	// cadence as CancelCheckEvents. It applies to experiments only; the
	// attack-free golden run is exempt, so a budget sized for the
	// attacked grid can never kill the reference it is compared against.
	EventBudget uint64
	// EarlyExit enables verdict-aware early termination: experiments stop
	// simulating as soon as their classification is decided (a collision
	// is recorded, or the attack window is over and the platoon has
	// re-stabilised onto the golden trajectory within EarlyExitTolerance
	// for EarlyExitHold). Classification output — class, collider
	// attribution, outcome counts — is identical with the flag on or off;
	// the raw kinematic extrema of a truncated run only cover the
	// simulated part of the horizon (DESIGN.md §10). Off by default: the
	// zero value preserves full-horizon kinematics bit-for-bit.
	EarlyExit bool
	// EarlyExitTolerance is the per-sample speed-deviation band (m/s)
	// within which the platoon counts as re-stabilised onto the golden
	// trajectory. Zero selects DefaultEarlyExitTolerance. Only consulted
	// when EarlyExit is set.
	EarlyExitTolerance float64
	// EarlyExitHold is how long every vehicle must stay within
	// EarlyExitTolerance after the attack window before the verdict
	// counts as decided. Zero selects DefaultEarlyExitHold. Only
	// consulted when EarlyExit is set.
	EarlyExitHold des.Time
	// Metrics, when non-nil, receives the engine's observability counters
	// (experiments started/completed, workspace-pool hits/misses,
	// checkpoint forks vs fresh builds, the per-experiment wall-clock
	// histogram) and the DES kernel counters (events executed,
	// snapshot/restore counts). All instrumentation flushes at experiment
	// or run granularity, never per event, and a nil registry disables it
	// entirely — results are bit-identical either way.
	Metrics *obs.Registry
}

// Early-exit defaults and cadence. The hold period defaults to one full
// cycle of the paper maneuver's 0.2 Hz sinusoid, so "stable for the
// hold" means the platoon tracked the golden run through a complete
// speed oscillation, not just a flat segment of it. Decision checks run
// on a fixed absolute-time grid (multiples of earlyExitCheckInterval
// since t=0) so fresh, forked and chained executions of the same
// experiment stop at the identical instant regardless of where their
// simulation segment began.
const (
	DefaultEarlyExitTolerance          = 1e-3
	DefaultEarlyExitHold               = 5 * des.Second
	earlyExitCheckInterval    des.Time = 500 * des.Millisecond
)

// Engine is the ComFASE engine: it owns a validated configuration and
// executes Algorithm 1.
type Engine struct {
	cfg        EngineConfig
	golden     *trace.FullLog
	goldenRes  *GoldenResult
	thresholds classify.Thresholds

	// eeTol/eeHold are the resolved early-exit knobs (defaults applied);
	// meaningful only when cfg.EarlyExit is set.
	eeTol  float64
	eeHold des.Time

	// pool recycles per-worker simulation workspaces: each experiment
	// checks one out, rebuilds the retained components in place and
	// returns it. Campaign workers therefore run thousands of experiments
	// with a near-constant allocation footprint. sync.Pool keeps at most
	// roughly one unit per P under steady concurrent load.
	pool sync.Pool
	// groupPool recycles the per-group checkpoint storage of
	// prefix-forked execution (see group.go) the same way.
	groupPool sync.Pool

	// met holds the engine's obs handles (all nil when cfg.Metrics is
	// nil: obs metrics are nil-safe, so the instrumentation below runs
	// unconditionally); km is the kernel metric bundle re-attached to
	// every workspace kernel after its Build.
	met engineMetrics
	km  *des.Metrics
}

// engineMetrics is the engine's metric inventory (DESIGN.md §8).
type engineMetrics struct {
	started     *obs.Counter   // experiment attempts begun (fresh + forked)
	completed   *obs.Counter   // experiment attempts finished successfully
	goldenRuns  *obs.Counter   // golden (reference) runs executed
	poolHits    *obs.Counter   // workspace checkouts served from the pool
	poolMisses  *obs.Counter   // workspace checkouts that built a new unit
	freshBuilds *obs.Counter   // experiment attempts on the fresh-build path
	forks       *obs.Counter   // experiment attempts forked from a checkpoint
	prefixes    *obs.Counter   // group prefix simulations checkpointed
	wall        *obs.Histogram // successful experiment wall-clock seconds

	trieBoundaries *obs.Counter // mid-attack boundary snapshots taken
	trieForks      *obs.Counter // experiment attempts forked from a boundary
	trieSavedMs    *obs.Counter // simulated milliseconds skipped via boundary forks
	trieDepth      *obs.Gauge   // depth of the most recently extended value chain
	groupRebuilds  *obs.Counter // tainted group sessions healed by a prefix rebuild
	earlyExits     *obs.Counter // experiments stopped once their verdict was decided
	earlySavedMs   *obs.Counter // simulated milliseconds skipped via early exit
}

// newEngineMetrics resolves the engine's metric handles. A nil registry
// yields all-nil handles, whose operations are no-ops.
func newEngineMetrics(reg *obs.Registry) engineMetrics {
	return engineMetrics{
		started:     reg.Counter("engine.experiments_started"),
		completed:   reg.Counter("engine.experiments_completed"),
		goldenRuns:  reg.Counter("engine.golden_runs"),
		poolHits:    reg.Counter("engine.workspace_pool_hits"),
		poolMisses:  reg.Counter("engine.workspace_pool_misses"),
		freshBuilds: reg.Counter("engine.fresh_builds"),
		forks:       reg.Counter("engine.checkpoint_forks"),
		prefixes:    reg.Counter("engine.checkpoint_prefixes"),
		wall:        reg.Histogram("engine.experiment_wall_seconds", obs.DurationBounds()...),

		trieBoundaries: reg.Counter("engine.trie_boundary_snapshots"),
		trieForks:      reg.Counter("engine.trie_suffix_forks"),
		trieSavedMs:    reg.Counter("engine.trie_sim_millis_saved"),
		trieDepth:      reg.Gauge("engine.trie_chain_depth"),
		groupRebuilds:  reg.Counter("engine.group_rebuilds"),
		earlyExits:     reg.Counter("engine.early_exits"),
		earlySavedMs:   reg.Counter("engine.early_exit_sim_millis_saved"),
	}
}

// workUnit is one pooled simulation workspace plus the reusable summary
// recorder that goes with it. fresh marks a unit the pool constructor
// just built and has never been checked out before — the discriminator
// behind the pool hit/miss counters.
type workUnit struct {
	ws      *scenario.Workspace
	summary *trace.Summary
	fresh   bool
}

// acquireUnit checks a workspace unit out of the pool.
func (e *Engine) acquireUnit() *workUnit {
	u := e.pool.Get().(*workUnit)
	if u.fresh {
		u.fresh = false
		e.met.poolMisses.Inc()
	} else {
		e.met.poolHits.Inc()
	}
	return u
}

// GoldenResult summarises the attack-free reference run (Step-2).
type GoldenResult struct {
	// MaxDecel is the strongest deceleration of the golden run — the
	// negligible/benign boundary of §IV-B (1.53 m/s^2 in the paper).
	MaxDecel float64
	// Collisions must be empty for a usable golden run.
	Collisions []traffic.Collision
	// Deliveries is the number of successfully decoded beacons.
	Deliveries uint64
	// Events is the kernel event count (for performance reporting).
	Events uint64
}

// ExperimentResult is the classified outcome of one attack experiment.
type ExperimentResult struct {
	// Spec is the experiment's grid point.
	Spec ExperimentSpec
	// Outcome is the §IV-B class.
	Outcome classify.Outcome
	// MaxDecel is the strongest deceleration observed (any vehicle).
	MaxDecel float64
	// MaxDecelPerVehicle is indexed by platoon position.
	MaxDecelPerVehicle []float64
	// MaxSpeedDev is the largest speed deviation from the golden run.
	MaxSpeedDev float64
	// Collisions lists collision incidents in order of occurrence.
	Collisions []traffic.Collision
	// Collider is the vehicle responsible for the FIRST collision ("" if
	// none) — the paper's collider analysis (§IV-C1/2, [32]).
	Collider string
}

// Collided reports whether the experiment produced a collision.
func (r ExperimentResult) Collided() bool { return len(r.Collisions) > 0 }

// CampaignResult aggregates a full attack-injection campaign (Step-3+4).
type CampaignResult struct {
	// Setup echoes the campaign grid.
	Setup CampaignSetup
	// Golden is the reference-run summary.
	Golden GoldenResult
	// Thresholds are the classification parameters used.
	Thresholds classify.Thresholds
	// Experiments holds one classified result per grid point, in expNr
	// order.
	Experiments []ExperimentResult
	// Counts tallies the outcome classes.
	Counts classify.Counts
	// Failures lists the experiments that failed persistently (all
	// retries exhausted) and were excluded from Experiments, in expNr
	// order. Empty on a clean campaign.
	Failures []ExperimentFailure
	// FailureCounts tallies Failures by class.
	FailureCounts FailureCounts
}

// Progress receives (completed, total) notifications during a campaign.
type Progress func(done, total int)

// NewEngine validates the configuration and returns an engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Comm.Validate(); err != nil {
		return nil, err
	}
	if cfg.Controllers == nil {
		cfg.Controllers = scenario.DefaultControllers()
	}
	if cfg.Thresholds != nil {
		if err := cfg.Thresholds.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.EarlyExitTolerance < 0 {
		return nil, errors.New("core: early-exit tolerance must be non-negative")
	}
	if cfg.EarlyExitHold < 0 {
		return nil, errors.New("core: early-exit hold must be non-negative")
	}
	// The engine-level flag fans out through the scenario config so every
	// workspace build (golden run and experiments alike) checks the same
	// invariants.
	cfg.Scenario.Invariants = cfg.Scenario.Invariants || cfg.Invariants
	e := &Engine{cfg: cfg}
	e.eeTol = cfg.EarlyExitTolerance
	if e.eeTol == 0 {
		e.eeTol = DefaultEarlyExitTolerance
	}
	e.eeHold = cfg.EarlyExitHold
	if e.eeHold == 0 {
		e.eeHold = DefaultEarlyExitHold
	}
	e.met = newEngineMetrics(cfg.Metrics)
	if cfg.Metrics != nil {
		e.km = &des.Metrics{
			Events:    cfg.Metrics.Counter("kernel.events_executed"),
			Snapshots: cfg.Metrics.Counter("kernel.snapshots"),
			Restores:  cfg.Metrics.Counter("kernel.restores"),
		}
	}
	e.pool.New = func() any {
		return &workUnit{ws: scenario.NewWorkspace(), summary: new(trace.Summary), fresh: true}
	}
	return e, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() EngineConfig { return e.cfg }

// GoldenRun executes Step-2: the attack-free reference simulation. The
// resulting log is cached and reused by subsequent experiments. Calling
// it again re-runs and replaces the cache.
func (e *Engine) GoldenRun() (*trace.FullLog, GoldenResult, error) {
	return e.GoldenRunCtx(context.Background())
}

// GoldenRunCtx is GoldenRun with cooperative cancellation: a canceled ctx
// aborts the simulation within CancelCheckEvents kernel events. Like
// experiment runs it executes inside the engine's panic boundary: a
// panicking component surfaces as a *PanicError and the workspace is
// discarded.
func (e *Engine) GoldenRunCtx(ctx context.Context) (log *trace.FullLog, res GoldenResult, err error) {
	u := e.acquireUnit()
	keep := false
	defer func() {
		if r := recover(); r != nil {
			// A panicked workspace may hold arbitrarily corrupted
			// component state; it must never return to the pool.
			keep = false
			log, res = nil, GoldenResult{}
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
		if keep {
			e.pool.Put(u)
		}
	}()
	sim, err := u.ws.Build(e.cfg.Scenario, e.cfg.Comm, e.cfg.Seed, e.cfg.Controllers)
	if err != nil {
		// A failed build may leave the workspace half-reset; drop the unit.
		return nil, GoldenResult{}, err
	}
	keep = true
	// The event budget is deliberately NOT applied here: it is a
	// per-experiment watchdog sized against attack-model-induced runaway
	// event loops, and the attack-free golden run must not be killed by a
	// budget chosen for the experiments.
	sim.Kernel.SetMetrics(e.km)
	sim.AttachContext(ctx, e.cfg.CancelCheckEvents)
	// Preallocate the full log for the known run length (one sample per
	// traffic step): the golden run's recording path then allocates no
	// per-sample rows.
	hint := int(e.cfg.Scenario.TotalSimTime/sim.Traffic.StepLength()) + 2
	log = trace.NewFullLogCap(sim.VehicleIDs(), hint)
	sim.AddRecorder(log)
	if err := sim.Start(); err != nil {
		return nil, GoldenResult{}, err
	}
	if err := sim.RunUntil(e.cfg.Scenario.TotalSimTime); err != nil {
		return nil, GoldenResult{}, err
	}
	res = GoldenResult{
		MaxDecel:   log.MaxDeceleration(),
		Collisions: sim.Traffic.Collisions(),
		Deliveries: sim.Air.Stats().Deliveries,
		Events:     sim.Kernel.Executed(),
	}
	if len(res.Collisions) > 0 {
		return nil, res, fmt.Errorf("core: golden run collided: %v", res.Collisions[0])
	}
	e.met.goldenRuns.Inc()
	e.golden = log
	gr := res
	e.goldenRes = &gr
	if e.cfg.Thresholds != nil {
		e.thresholds = *e.cfg.Thresholds
	} else {
		e.thresholds = classify.PaperThresholds(res.MaxDecel)
	}
	return log, res, nil
}

// EnsureGolden executes the golden run unless one is already cached. It
// is the priming step campaign runners call before spawning workers (the
// cached log is shared read-only by every experiment).
func (e *Engine) EnsureGolden(ctx context.Context) error {
	if e.golden != nil {
		return nil
	}
	_, _, err := e.GoldenRunCtx(ctx)
	return err
}

// Golden returns the cached golden-run summary; ok is false before the
// golden run has executed.
func (e *Engine) Golden() (res GoldenResult, ok bool) {
	if e.goldenRes == nil {
		return GoldenResult{}, false
	}
	return *e.goldenRes, true
}

// Thresholds returns the classification parameters in use (valid after
// the golden run).
func (e *Engine) Thresholds() classify.Thresholds { return e.thresholds }

// RunExperiment executes Step-3 for a single grid point: build a fresh
// simulation, run to attackStartTime, install the attack model (the
// CommModelEditor step), run to attackEndTime, remove the model, run to
// totalSimTime, then classify against the golden run (Step-4).
func (e *Engine) RunExperiment(spec ExperimentSpec) (ExperimentResult, error) {
	res, _, err := e.runExperiment(context.Background(), spec, false)
	return res, err
}

// RunExperimentCtx is RunExperiment with cooperative cancellation: a
// canceled ctx aborts the simulation within CancelCheckEvents kernel
// events and returns an error wrapping ctx.Err().
func (e *Engine) RunExperimentCtx(ctx context.Context, spec ExperimentSpec) (ExperimentResult, error) {
	res, _, err := e.runExperiment(ctx, spec, false)
	return res, err
}

// RunExperimentWithLog is RunExperiment plus the full per-vehicle time
// series of the attacked run — the raw material for single-experiment
// case studies (trajectory plots, gap evolution).
func (e *Engine) RunExperimentWithLog(spec ExperimentSpec) (ExperimentResult, *trace.FullLog, error) {
	return e.runExperiment(context.Background(), spec, true)
}

func (e *Engine) runExperiment(ctx context.Context, spec ExperimentSpec, withLog bool) (res ExperimentResult, full *trace.FullLog, err error) {
	if err := e.EnsureGolden(ctx); err != nil {
		return ExperimentResult{}, nil, err
	}
	if err := ctx.Err(); err != nil {
		return ExperimentResult{}, nil, err
	}
	e.met.started.Inc()
	// Wall-clock timing costs two time.Now calls per experiment — noise
	// next to the simulation itself — but is still skipped entirely when
	// metrics are off so the disabled path pays literally nothing.
	var wallStart time.Time
	if e.met.wall != nil {
		wallStart = time.Now()
	}
	horizon := e.cfg.Scenario.TotalSimTime
	u := e.acquireUnit()
	keep := false
	// The panic boundary of the failure-containment layer: a panic
	// anywhere in the experiment (model factory, attack model,
	// controller, kernel handler) converts to a *PanicError instead of
	// crashing the campaign process, and the workspace — whose
	// components may be in an arbitrarily corrupted state — is
	// discarded, never returned to the pool.
	defer func() {
		if r := recover(); r != nil {
			keep = false
			res, full = ExperimentResult{}, nil
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
		if keep {
			e.pool.Put(u)
		}
	}()
	model, err := spec.buildModel(horizon, e.cfg.Seed)
	if err != nil {
		// The unit is untouched, but pool.Put on every early return is
		// what ties keep-tracking to control flow; re-pool it here.
		keep = true
		return ExperimentResult{}, nil, err
	}
	sim, err := u.ws.Build(e.cfg.Scenario, e.cfg.Comm, e.cfg.Seed, e.cfg.Controllers)
	if err != nil {
		// A failed build may leave the workspace half-reset; drop the unit.
		return ExperimentResult{}, nil, err
	}
	keep = true
	e.met.freshBuilds.Inc()
	sim.Kernel.SetMetrics(e.km)
	sim.Kernel.SetEventBudget(e.cfg.EventBudget)
	sim.AttachContext(ctx, e.cfg.CancelCheckEvents)
	summary := u.summary
	summary.Reset(len(sim.Members), e.golden)
	if e.cfg.EarlyExit {
		summary.TrackStability(e.eeTol)
	}
	sim.AddRecorder(summary)
	if withLog {
		// Preallocate for the known run length (one sample per traffic
		// step) so the log never regrows mid-run.
		hint := int(horizon/sim.Traffic.StepLength()) + 2
		full = trace.NewFullLogCap(sim.VehicleIDs(), hint)
		sim.AddRecorder(full)
	}
	if err := sim.Start(); err != nil {
		return ExperimentResult{}, nil, err
	}

	start := spec.Start
	if start > horizon {
		start = horizon
	}
	end := spec.End(horizon)

	// Algorithm 1 lines 12-14: the three SimUntil phases (the attacked
	// window and tail run through the early-exit-aware helper).
	if err := sim.RunUntil(start); err != nil {
		return ExperimentResult{}, nil, err
	}
	if err := applyAttack(sim, model); err != nil {
		return ExperimentResult{}, nil, err
	}
	decided, stopAt, err := e.runDecidable(sim, summary, start, end, end, false)
	if err != nil {
		return ExperimentResult{}, nil, err
	}
	if !decided {
		if err := removeAttack(sim, model); err != nil {
			return ExperimentResult{}, nil, err
		}
		decided, stopAt, err = e.runDecidable(sim, summary, end, horizon, end, true)
		if err != nil {
			return ExperimentResult{}, nil, err
		}
	}
	if decided {
		e.met.earlyExits.Inc()
		e.met.earlySavedMs.Add(uint64((horizon - stopAt) / des.Millisecond))
	}

	res, err = e.finishExperiment(sim, summary, spec)
	if err != nil {
		return ExperimentResult{}, nil, err
	}
	e.met.completed.Inc()
	if e.met.wall != nil {
		e.met.wall.ObserveDuration(time.Since(wallStart))
	}
	return res, full, nil
}

// runDecidable advances the simulation from `from` to `to`, stopping
// early once the experiment's classification is decided (verdict-aware
// early termination). With EarlyExit off it degenerates to a single
// RunUntil. With it on, the run proceeds in chunks clipped to absolute
// multiples of earlyExitCheckInterval — the same instants for every
// execution path of the same experiment — and after each chunk consults
// classify.Decided. During the attacked window (tail=false) only a
// collision decides; during the tail (tail=true) re-stabilisation onto
// the golden run for the hold period decides too. It returns whether the
// verdict was decided and the simulation time reached.
//
// attackEnd is the end of the attacked window; the hold period can only
// begin once both the attack is over and the summary saw its last
// out-of-tolerance sample.
func (e *Engine) runDecidable(sim *scenario.Simulation, summary *trace.Summary, from, to, attackEnd des.Time, tail bool) (bool, des.Time, error) {
	if !e.cfg.EarlyExit {
		return false, to, sim.RunUntil(to)
	}
	for cur := from; cur < to; {
		next := (cur/earlyExitCheckInterval + 1) * earlyExitCheckInterval
		if next > to {
			next = to
		}
		if err := sim.RunUntil(next); err != nil {
			return false, cur, err
		}
		cur = next
		stabilized := false
		if tail {
			since := summary.LastUnstable()
			if attackEnd > since {
				since = attackEnd
			}
			stabilized = cur >= since.Add(e.eeHold)
		}
		obsv := classify.Observation{
			MaxDecel:    summary.MaxDecelOverall(),
			MaxSpeedDev: summary.MaxSpeedDev,
			Collided:    sim.Traffic.CollisionCount() > 0,
		}
		if classify.Decided(e.thresholds, obsv, tail, stabilized, e.eeTol) {
			return true, cur, nil
		}
	}
	return false, to, nil
}

// finishExperiment validates a completed attack run and assembles the
// classified result (Step-4). It is shared by the fresh-build and
// checkpoint-forked execution paths, so both classify byte-identically.
func (e *Engine) finishExperiment(sim *scenario.Simulation, summary *trace.Summary, spec ExperimentSpec) (ExperimentResult, error) {
	if summary.Misaligned {
		return ExperimentResult{}, errors.New("core: attack run sampling misaligned with golden run")
	}
	collisions := sim.Traffic.Collisions()
	collider := ""
	if len(collisions) > 0 {
		collider = collisions[0].Collider
	}
	res := ExperimentResult{
		Spec:     spec,
		MaxDecel: summary.MaxDecelOverall(),
		// The summary's backing array is recycled with the workspace, so
		// the result must own a copy.
		MaxDecelPerVehicle: summary.CopyMaxDecel(),
		MaxSpeedDev:        summary.MaxSpeedDev,
		Collisions:         collisions,
		Collider:           collider,
	}
	res.Outcome = classify.Classify(e.thresholds, classify.Observation{
		MaxDecel:    res.MaxDecel,
		MaxSpeedDev: res.MaxSpeedDev,
		Collided:    res.Collided(),
	})
	return res, nil
}

// applyAttack activates an attack model on a running simulation — the
// CommModelEditor step of Algorithm 1 line 11. Frame-level models swap
// the Air's interceptor; physical-layer models install themselves.
func applyAttack(sim *scenario.Simulation, model AttackModel) error {
	switch m := model.(type) {
	case Installer:
		return m.Install(sim)
	case nic.Interceptor:
		sim.Air.SetInterceptor(m)
		return nil
	default:
		return fmt.Errorf("core: attack model %q implements neither Interceptor nor Installer", model.Name())
	}
}

// removeAttack deactivates the model at attackEndTime.
func removeAttack(sim *scenario.Simulation, model AttackModel) error {
	switch m := model.(type) {
	case Installer:
		return m.Uninstall(sim)
	case nic.Interceptor:
		sim.Air.SetInterceptor(nil)
		return nil
	default:
		return fmt.Errorf("core: attack model %q implements neither Interceptor nor Installer", model.Name())
	}
}
