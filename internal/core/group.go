// Checkpoint-trie forking: experiments of a campaign that share an
// attackStartTime also share a byte-identical fault-free prefix — the
// simulation from t=0 to the attack start is independent of the attack
// value and duration. A GroupSession runs that prefix ONCE per worker,
// snapshots the full simulation state (scenario.Checkpoint), and forks
// each sibling experiment from the snapshot: restore, install the attack,
// run to the horizon, classify.
//
// The session generalises the single prefix snapshot into a depth-2
// checkpoint trie: siblings that also share the attack VALUE differ only
// in duration, so their attacked intervals are nested. When the caller
// orders such a value chain by ascending duration and runs it through
// RunExperimentChained, the session snapshots again at each duration
// boundary — with the attack still active — and the next, longer sibling
// restores that mid-attack boundary instead of the prefix, simulating
// only its unique suffix. Chaining requires the model to advertise
// duration-independent purity via the ChainableModel marker; everything
// else (stochastic models, Installers) transparently forks from the
// prefix root. On the paper's grids the trie removes the dominant share
// of redundant event processing beyond what the prefix alone saves.
//
// Forked runs are bit-identical to fresh runs: every stateful layer
// restores exactly, runtime knobs (context check, event budget) are
// reapplied per sibling in the fresh path's order, and the kernel rewinds
// its interrupt-poll phase so deterministic abort points (event budget)
// land on the same event in both paths. The campaign equivalence tests
// pin this for the prefix root and the trie alike.
//
// Failure containment is tiered. Clean failures (invariant hit, budget
// exhaustion, cancellation) leave every snapshot intact — the next fork
// rewinds the workspace completely — so they cost nothing. A panic may
// corrupt the live workspace, so it taints the session: the tainted
// workspace is discarded (never re-pooled, exactly like the fresh path's
// panic handling) and the next fork heals the session by rebuilding the
// prefix from scratch, poisoning only the chain in progress while sibling
// value chains keep forking from the rebuilt root.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"comfase/internal/nic"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
	"comfase/internal/trace"
)

// Errors returned by the group-execution API.
var (
	// ErrGroupPoisoned marks a GroupSession that failed unrecoverably
	// (its prefix could not be rebuilt); remaining experiments must run
	// on the fresh-build path.
	ErrGroupPoisoned = errors.New("core: experiment group session poisoned by an earlier failure")
	// ErrWrongGroup marks an experiment whose attack start does not match
	// the session's checkpointed prefix.
	ErrWrongGroup = errors.New("core: experiment start does not match the group's checkpoint")
	// ErrNotCheckpointable re-exports the scenario gate for callers that
	// select the fresh path without importing scenario.
	ErrNotCheckpointable = scenario.ErrNotCheckpointable
)

// groupScratch bundles the pooled per-group snapshot storage: the trie
// root (composed simulation checkpoint at the attack start plus the
// summary recorder's state there) and one rolling inner node — the
// mid-attack boundary checkpoint the current value chain extends.
type groupScratch struct {
	cp  scenario.Checkpoint
	sum trace.SummaryState

	chainCp  scenario.Checkpoint
	chainSum trace.SummaryState
}

// GroupSession executes a group of experiments that share an attack start
// time by forking each one from the checkpoint trie. Obtain one with
// Engine.BeginGroup; it is not safe for concurrent use (one session per
// campaign worker). Always Close a session — Close returns the workspace
// and checkpoint storage to the engine's pools when the session is still
// clean.
type GroupSession struct {
	e       *Engine
	u       *workUnit
	sim     *scenario.Simulation
	scratch *groupScratch
	start   des.Time
	healthy bool
	// tainted marks a session whose live workspace may be corrupted (a
	// sibling panicked). The session stays healthy: the next fork discards
	// the tainted workspace and heals by rebuilding the prefix.
	tainted bool

	// Rolling value-chain state: chainCp/chainSum in scratch are valid iff
	// chainValid, hold the simulation at chainAt (mid-attack, attack still
	// active) under the chain's (value, attack label), and sit chainDepth
	// boundaries deep past the root.
	chainValid bool
	chainAt    des.Time
	chainValue float64
	chainLabel string
	chainDepth int
}

// groupPool recycles groupScratch values across group sessions; see
// Engine.pool for the workspace analogue.
func (e *Engine) acquireScratch() *groupScratch {
	if v := e.groupPool.Get(); v != nil {
		return v.(*groupScratch)
	}
	return &groupScratch{}
}

// BeginGroup runs the fault-free prefix up to the attack start time and
// checkpoints it — the root of the session's checkpoint trie. ctx must be
// the same kind of context the caller will pass to fresh experiment
// attempts (timeout-wrapped or not), so the kernel's interrupt-poll
// cadence — and with it every deterministic abort point — matches the
// fresh path exactly.
//
// A non-nil error means no session exists and the caller must fall back
// to the fresh-build path; scenario.ErrNotCheckpointable marks
// configurations (fading channel, custom stateful controllers) that can
// never be checkpointed.
func (e *Engine) BeginGroup(ctx context.Context, start des.Time) (*GroupSession, error) {
	if err := e.EnsureGolden(ctx); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	horizon := e.cfg.Scenario.TotalSimTime
	if start > horizon {
		start = horizon
	}
	gs := &GroupSession{e: e, start: start}
	if err := gs.buildRoot(ctx); err != nil {
		return nil, err
	}
	gs.healthy = true
	return gs, nil
}

// buildRoot acquires a workspace, simulates the fault-free prefix to the
// session's start time and snapshots it into the session's scratch —
// establishing (or re-establishing, on heal) the trie root. On error the
// session holds no workspace; reusable units are re-pooled, suspect ones
// dropped.
func (gs *GroupSession) buildRoot(ctx context.Context) (err error) {
	e := gs.e
	u := e.acquireUnit()
	keep := false
	// Same panic boundary as the fresh path: a panicking component during
	// the prefix surfaces as *PanicError and the workspace is discarded.
	defer func() {
		if r := recover(); r != nil {
			keep = false
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
		if err != nil && keep {
			e.pool.Put(u)
		}
	}()
	sim, err := u.ws.Build(e.cfg.Scenario, e.cfg.Comm, e.cfg.Seed, e.cfg.Controllers)
	if err != nil {
		// A failed build may leave the workspace half-reset; drop the unit.
		return err
	}
	keep = true
	e.met.freshBuilds.Inc()
	if !u.ws.Checkpointable() {
		return ErrNotCheckpointable
	}
	// Runtime knobs in the fresh path's order; the prefix must execute
	// with the same budget and poll cadence as a fresh attempt so the
	// kernel counters at the fork point match a fresh run at `start`.
	sim.Kernel.SetMetrics(e.km)
	sim.Kernel.SetEventBudget(e.cfg.EventBudget)
	sim.AttachContext(ctx, e.cfg.CancelCheckEvents)
	summary := u.summary
	summary.Reset(len(sim.Members), e.golden)
	if e.cfg.EarlyExit {
		summary.TrackStability(e.eeTol)
	}
	sim.AddRecorder(summary)
	if err := sim.Start(); err != nil {
		return err
	}
	if err := sim.RunUntil(gs.start); err != nil {
		return err
	}
	scratch := gs.scratch
	if scratch == nil {
		scratch = e.acquireScratch()
	}
	if err := u.ws.Snapshot(&scratch.cp); err != nil {
		if gs.scratch == nil {
			e.groupPool.Put(scratch)
		}
		return err
	}
	summary.SaveState(&scratch.sum)
	e.met.prefixes.Inc()
	gs.u, gs.sim, gs.scratch = u, sim, scratch
	gs.tainted = false
	gs.chainValid = false
	gs.chainDepth = 0
	return nil
}

// heal rebuilds a tainted session: the possibly-corrupted workspace is
// discarded (never re-pooled, matching the fresh path's panic hygiene)
// and the prefix is re-simulated into the same scratch storage. The
// rebuilt snapshot carries a new workspace epoch, so the stale chain
// checkpoint can never be restored by accident. A failure whose cause is
// the caller's context (cancellation, per-attempt timeout) leaves the
// session tainted for a later retry; any other failure poisons it.
func (gs *GroupSession) heal(ctx context.Context) error {
	gs.u, gs.sim = nil, nil
	gs.chainValid = false
	if err := gs.buildRoot(ctx); err != nil {
		if ctx.Err() == nil {
			gs.healthy = false
		}
		return err
	}
	gs.e.met.groupRebuilds.Inc()
	return nil
}

// Healthy reports whether the session can still fork experiments. A
// tainted session (a sibling panicked) still reports healthy — it heals
// itself on the next fork; only a failed heal poisons the session for
// good, after which remaining siblings must run fresh.
func (gs *GroupSession) Healthy() bool { return gs.healthy }

// Start returns the attack start time the session's checkpoint was taken
// at.
func (gs *GroupSession) Start() des.Time { return gs.start }

// RunExperiment forks one sibling experiment from the prefix root:
// restore, install the attack model, run the attack window and the
// remaining horizon, classify. spec.Start must equal the session's fork
// point. It never consults or extends the duration chain — the runner's
// trie-off mode and existing callers keep their exact semantics.
func (gs *GroupSession) RunExperiment(ctx context.Context, spec ExperimentSpec) (ExperimentResult, error) {
	return gs.run(ctx, spec, false, false)
}

// RunExperimentChained is RunExperiment through the checkpoint trie: when
// the session's rolling value chain matches the spec (same attack value
// and label, chain boundary not past the spec's attack end) and the model
// advertises ChainableModel purity, the run forks from the mid-attack
// boundary checkpoint instead of the prefix root and simulates only its
// unique suffix. retain asks the session to snapshot a new boundary at
// this spec's attack end for the NEXT sibling — the caller passes true
// while more chain members follow. Specs that cannot chain (different
// value, unchainable model, no valid boundary) transparently fork from
// the root and start a new chain.
func (gs *GroupSession) RunExperimentChained(ctx context.Context, spec ExperimentSpec, retain bool) (ExperimentResult, error) {
	return gs.run(ctx, spec, true, retain)
}

func (gs *GroupSession) run(ctx context.Context, spec ExperimentSpec, chain, retain bool) (res ExperimentResult, err error) {
	if !gs.healthy {
		return ExperimentResult{}, ErrGroupPoisoned
	}
	e := gs.e
	horizon := e.cfg.Scenario.TotalSimTime
	start := spec.Start
	if start > horizon {
		start = horizon
	}
	if start != gs.start {
		return ExperimentResult{}, fmt.Errorf("%w: spec start %v, checkpoint at %v",
			ErrWrongGroup, start, gs.start)
	}
	if gs.tainted {
		if err := gs.heal(ctx); err != nil {
			return ExperimentResult{}, err
		}
	}
	e.met.started.Inc()
	var wallStart time.Time
	if e.met.wall != nil {
		wallStart = time.Now()
	}
	// The panic boundary: a panic anywhere past this point may have
	// corrupted the live workspace, so the session is tainted and will
	// rebuild its prefix before the next fork. Clean errors below do NOT
	// taint — every snapshot layer is restored wholesale on the next fork,
	// including the traffic fault latch and collision log, so an invariant
	// hit or budget abort leaves nothing behind.
	defer func() {
		if r := recover(); r != nil {
			gs.tainted = true
			gs.chainValid = false
			res = ExperimentResult{}
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	model, err := buildModelSafe(spec, horizon, e.cfg.Seed)
	if err != nil {
		// Nothing touched the workspace yet; the session stays usable.
		return ExperimentResult{}, err
	}
	end := spec.End(horizon)
	ic, isInterceptor := model.(nic.Interceptor)
	_, marked := model.(ChainableModel)
	canChain := isInterceptor && marked
	fromChain := chain && canChain && gs.chainValid &&
		gs.chainValue == spec.Value && gs.chainLabel == spec.AttackLabel() &&
		end >= gs.chainAt

	sim := gs.sim
	// Per-sibling runtime knobs BEFORE Restore (fresh-path order):
	// AttachContext resets the kernel's poll phase, and Restore then
	// rewinds it to the fork-point value, so the sibling polls budget and
	// context on exactly the cadence a fresh run would past the fork.
	sim.Kernel.SetEventBudget(e.cfg.EventBudget)
	sim.AttachContext(ctx, e.cfg.CancelCheckEvents)

	var from des.Time
	if fromChain {
		if err := gs.u.ws.Restore(&gs.scratch.chainCp); err != nil {
			// Restore can only fail on ownership/epoch bookkeeping bugs;
			// nothing about the workspace is trustworthy then.
			gs.healthy = false
			return ExperimentResult{}, err
		}
		gs.u.summary.LoadState(&gs.scratch.chainSum)
		// The boundary snapshot captured the PREVIOUS sibling's model as
		// the installed interceptor (nic.AirState stores the pointer);
		// swap in this sibling's own — behaviourally identical by the
		// ChainableModel contract — instance.
		sim.Air.SetInterceptor(ic)
		from = gs.chainAt
		e.met.trieForks.Inc()
		e.met.trieSavedMs.Add(uint64((gs.chainAt - gs.start) / des.Millisecond))
	} else {
		if err := gs.u.ws.Restore(&gs.scratch.cp); err != nil {
			gs.healthy = false
			return ExperimentResult{}, err
		}
		gs.u.summary.LoadState(&gs.scratch.sum)
		// Algorithm 1 line 13 on the forked state (line 12 — SimUntil the
		// attack start — is the shared prefix).
		if err := applyAttack(sim, model); err != nil {
			// An Installer may have partially installed; rebuild before the
			// next fork rather than trust the workspace.
			gs.tainted = true
			gs.chainValid = false
			return ExperimentResult{}, err
		}
		from = start
		// This fork starts a new value chain; the previous one is done.
		gs.chainValid = false
		gs.chainDepth = 0
		e.met.forks.Inc()
	}

	decided, stopAt, err := e.runDecidable(sim, gs.u.summary, from, end, end, false)
	if err != nil {
		return ExperimentResult{}, err
	}
	if !decided && chain && retain && canChain {
		// The sibling reached its attack end undecided with the attack
		// still active: exactly the state the next, longer chain member
		// needs. Snapshot it as the chain's new boundary. A decided run
		// stopped mid-window, so the chain simply keeps its old boundary —
		// later members re-simulate past it and exit at the same instant.
		if err := gs.u.ws.Snapshot(&gs.scratch.chainCp); err != nil {
			gs.chainValid = false
		} else {
			gs.u.summary.SaveState(&gs.scratch.chainSum)
			gs.chainValid = true
			gs.chainAt = end
			gs.chainValue = spec.Value
			gs.chainLabel = spec.AttackLabel()
			gs.chainDepth++
			e.met.trieBoundaries.Inc()
			e.met.trieDepth.Set(int64(gs.chainDepth))
		}
	}
	if !decided {
		if err := removeAttack(sim, model); err != nil {
			gs.tainted = true
			gs.chainValid = false
			return ExperimentResult{}, err
		}
		decided, stopAt, err = e.runDecidable(sim, gs.u.summary, end, horizon, end, true)
		if err != nil {
			return ExperimentResult{}, err
		}
	}
	if decided {
		e.met.earlyExits.Inc()
		e.met.earlySavedMs.Add(uint64((horizon - stopAt) / des.Millisecond))
	}
	res, err = e.finishExperiment(sim, gs.u.summary, spec)
	if err != nil {
		return ExperimentResult{}, err
	}
	e.met.completed.Inc()
	if e.met.wall != nil {
		e.met.wall.ObserveDuration(time.Since(wallStart))
	}
	return res, nil
}

// buildModelSafe converts a panicking model factory into a *PanicError in
// its own recovery scope: the factory runs before anything touches the
// simulation, so its panic must not taint the caller's workspace.
func buildModelSafe(spec ExperimentSpec, horizon des.Time, seed uint64) (model AttackModel, err error) {
	defer func() {
		if r := recover(); r != nil {
			model, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return spec.buildModel(horizon, seed)
}

// Close releases the session. A clean session returns its workspace and
// checkpoint storage to the engine's pools; a tainted or poisoned one
// discards both (their components may be arbitrarily corrupted), exactly
// as the fresh path discards panicked workspaces.
func (gs *GroupSession) Close() {
	if gs.healthy && !gs.tainted {
		gs.e.pool.Put(gs.u)
		gs.e.groupPool.Put(gs.scratch)
	}
	gs.healthy = false
	gs.u = nil
	gs.sim = nil
	gs.scratch = nil
}

// RunExperimentGroup executes a group of experiments sharing one attack
// start time, forking them from a single prefix checkpoint. Experiments
// whose forked run fails — and whole groups whose prefix cannot be
// checkpointed (scenario.ErrNotCheckpointable) or fails — transparently
// fall back to the fresh-build path, so the call succeeds whenever plain
// per-experiment execution would. Results are returned in spec order.
// (The runner's trie mode additionally orders value chains by duration
// and uses RunExperimentChained; this convenience API keeps spec order
// and root forking.)
func (e *Engine) RunExperimentGroup(ctx context.Context, specs []ExperimentSpec) ([]ExperimentResult, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	for _, s := range specs[1:] {
		if s.Start != specs[0].Start {
			return nil, fmt.Errorf("core: experiment group mixes start times %v and %v",
				specs[0].Start, s.Start)
		}
	}
	gs, err := e.BeginGroup(ctx, specs[0].Start)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		gs = nil // prefix failed: run the whole group fresh
	} else {
		defer gs.Close()
	}
	out := make([]ExperimentResult, 0, len(specs))
	for _, spec := range specs {
		if gs != nil && gs.Healthy() {
			res, err := gs.RunExperiment(ctx, spec)
			if err == nil {
				out = append(out, res)
				continue
			}
			if ctx.Err() != nil {
				return out, err
			}
			// Fall through: retry this sibling fresh. Deterministic
			// failures (invariant hits, budget exhaustion) reproduce there
			// and surface exactly as they would without checkpointing.
		}
		res, err := e.RunExperimentCtx(ctx, spec)
		if err != nil {
			return out, fmt.Errorf("experiment %v: %w", spec, err)
		}
		out = append(out, res)
	}
	return out, nil
}
