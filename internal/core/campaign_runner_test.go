package core_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"comfase/internal/core"
	"comfase/internal/runner"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
)

// The campaign-level tests below drive grids through runner.Runner, the
// one campaign execution path. They live in the external test package
// because runner imports core.

func newPaperEngine(t *testing.T) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.EngineConfig{
		Scenario: scenario.PaperScenario(),
		Comm:     scenario.PaperCommModel(),
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng
}

// runGrid runs setup through a fresh runner on a fresh paper engine.
func runGrid(t *testing.T, ctx context.Context, setup core.CampaignSetup, opts runner.Options) (*core.CampaignResult, error) {
	t.Helper()
	r, err := runner.New(newPaperEngine(t), opts)
	if err != nil {
		t.Fatalf("runner.New: %v", err)
	}
	return r.Run(ctx, setup)
}

func smallGrid() core.CampaignSetup {
	return core.CampaignSetup{
		Attack:    core.AttackDelay,
		Targets:   []string{"vehicle.2"},
		Values:    []float64{0.4, 2.0},
		Starts:    []des.Time{17 * des.Second, 19800 * des.Millisecond, 21 * des.Second},
		Durations: []des.Time{2 * des.Second, 10 * des.Second},
	}
}

// TestParallelMatchesSequential compares a 4-worker runner against the
// fresh per-experiment loop in grid order.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("24 experiments in -short mode")
	}
	eng := newPaperEngine(t)
	var seq []core.ExperimentResult
	for _, spec := range smallGrid().Experiments() {
		res, err := eng.RunExperimentCtx(context.Background(), spec)
		if err != nil {
			t.Fatalf("experiment %v: %v", spec, err)
		}
		seq = append(seq, res)
	}
	par, err := runGrid(t, context.Background(), smallGrid(), runner.Options{Workers: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(par.Experiments) != len(seq) {
		t.Fatalf("experiments = %d, want %d", len(par.Experiments), len(seq))
	}
	for i := range seq {
		a, b := seq[i], par.Experiments[i]
		if a.Outcome != b.Outcome || a.MaxDecel != b.MaxDecel || a.Collider != b.Collider {
			t.Errorf("experiment %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

func TestParallelProgressCoversAll(t *testing.T) {
	if testing.Short() {
		t.Skip("12 experiments in -short mode")
	}
	var calls atomic.Int64
	var sawTotal atomic.Int64
	_, err := runGrid(t, context.Background(), smallGrid(), runner.Options{
		Workers: 3,
		Progress: func(done, total int) {
			calls.Add(1)
			sawTotal.Store(int64(total))
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls.Load() != 12 || sawTotal.Load() != 12 {
		t.Errorf("progress calls = %d (total %d), want 12", calls.Load(), sawTotal.Load())
	}
}

func TestParallelRejectsInvalidSetup(t *testing.T) {
	if _, err := runGrid(t, context.Background(), core.CampaignSetup{}, runner.Options{Workers: 2}); err == nil {
		t.Error("invalid setup accepted")
	}
}

// TestParallelSingleWorkerFallsBack runs a one-point grid with one
// worker and with more workers than grid points.
func TestParallelSingleWorkerFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	setup := core.CampaignSetup{
		Attack:    core.AttackDelay,
		Targets:   []string{"vehicle.2"},
		Values:    []float64{2.0},
		Starts:    []des.Time{18 * des.Second},
		Durations: []des.Time{10 * des.Second},
	}
	for _, workers := range []int{1, 4} {
		res, err := runGrid(t, context.Background(), setup, runner.Options{Workers: workers})
		if err != nil {
			t.Fatalf("Run (workers %d): %v", workers, err)
		}
		if res.Counts.Total() != 1 {
			t.Errorf("workers %d: total = %d", workers, res.Counts.Total())
		}
	}
}

// TestParallelFailFast pins the early-abort regression: after the first
// experiment error, remaining queued jobs must NOT be executed to
// completion.
func TestParallelFailFast(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments in -short mode")
	}
	var started atomic.Int64
	setup := smallGrid() // 12 experiments
	setup.Factory = func(spec core.ExperimentSpec, horizon des.Time, seed uint64) (core.AttackModel, error) {
		if started.Add(1) == 1 {
			return nil, errors.New("injected model failure")
		}
		return core.NewDelayAttack(des.FromSeconds(spec.Value), spec.Targets...)
	}
	_, err := runGrid(t, context.Background(), setup, runner.Options{Workers: 2})
	if err == nil {
		t.Fatal("campaign with failing experiment succeeded")
	}
	if !strings.Contains(err.Error(), "injected model failure") {
		t.Fatalf("error = %v, want the injected failure", err)
	}
	// Fail-fast bound: the failing job, one in-flight job per worker and
	// a small dispatch race window — far below the 12-point grid.
	if got := started.Load(); got > 6 {
		t.Errorf("%d experiments started after first error, want <= 6 (grid 12)", got)
	}
}

// TestParallelProgressMonotonic guarantees the Progress callback sees
// strictly increasing done counts (completion order, not grid order).
func TestParallelProgressMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("12 experiments in -short mode")
	}
	var mu sync.Mutex
	var dones []int
	_, err := runGrid(t, context.Background(), smallGrid(), runner.Options{
		Workers: 4,
		Progress: func(done, total int) {
			mu.Lock()
			dones = append(dones, done)
			mu.Unlock()
			if total != 12 {
				t.Errorf("total = %d, want 12", total)
			}
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(dones) != 12 {
		t.Fatalf("progress called %d times, want 12", len(dones))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress done sequence %v not monotonically increasing", dones)
		}
	}
}

// TestParallelCtxCancelAborts verifies cancellation stops the campaign
// promptly and surfaces the context error.
func TestParallelCtxCancelAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments in -short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	setup := smallGrid()
	setup.Factory = func(spec core.ExperimentSpec, horizon des.Time, seed uint64) (core.AttackModel, error) {
		if started.Add(1) == 1 {
			cancel()
		}
		return core.NewDelayAttack(des.FromSeconds(spec.Value), spec.Targets...)
	}
	_, err := runGrid(t, ctx, setup, runner.Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if got := started.Load(); got > 6 {
		t.Errorf("%d experiments started after cancel, want <= 6", got)
	}
}

func TestRunCampaignSmallGrid(t *testing.T) {
	setup := core.CampaignSetup{
		Attack:    core.AttackDelay,
		Targets:   []string{"vehicle.2"},
		Values:    []float64{0.2, 2.0},
		Starts:    []des.Time{18 * des.Second, 198 * 100 * des.Millisecond},
		Durations: []des.Time{1 * des.Second, 10 * des.Second},
	}
	var progress []int
	res, err := runGrid(t, context.Background(), setup, runner.Options{
		Workers: 1,
		Progress: func(done, total int) {
			progress = append(progress, done)
			if total != 8 {
				t.Errorf("total = %d, want 8", total)
			}
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Experiments) != 8 || res.Counts.Total() != 8 {
		t.Fatalf("experiments = %d counts = %v", len(res.Experiments), res.Counts)
	}
	if len(progress) != 8 || progress[7] != 8 {
		t.Errorf("progress = %v", progress)
	}
	// The strong/long grid point must dominate the weak/short one.
	if res.Counts.Severe == 0 {
		t.Error("no severe outcomes in mixed grid")
	}
	if res.Counts.Severe == 8 {
		t.Error("every outcome severe in mixed grid")
	}
}

func TestRunCampaignRejectsInvalidSetup(t *testing.T) {
	if _, err := runGrid(t, context.Background(), core.CampaignSetup{}, runner.Options{}); err == nil {
		t.Error("invalid setup accepted")
	}
}
