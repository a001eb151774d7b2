package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"comfase/internal/classify"
	"comfase/internal/core"
)

// MatrixCell is one (scenario, attack) cell of a matrix campaign: the
// engine configuration of the scenario plus the cell's campaign grid.
// Cells are produced by registry.Matrix.Expand (via the config layer);
// the runner deliberately takes the flattened form so it does not
// depend on the registry package. A single campaign is one cell with
// empty Scenario and Attack labels.
type MatrixCell struct {
	// Scenario is the cell's scenario label (matches Setup.Scenario).
	Scenario string
	// Attack is the cell's attack family name.
	Attack string
	// Engine configures the scenario cell's engine (one golden run per
	// distinct scenario).
	Engine core.EngineConfig
	// Setup is the cell's campaign grid; Setup.Base carries the global
	// expNr offset, so shard/resume/merge work on the flattened grid.
	Setup core.CampaignSetup
}

// CellResult is one cell's campaign outcome.
type CellResult struct {
	Scenario string
	Attack   string
	Result   *core.CampaignResult
}

// MatrixResult aggregates a full matrix run.
type MatrixResult struct {
	// Cells are the per-cell results in matrix order.
	Cells []CellResult
	// Experiments are all classified results in global grid order.
	Experiments []core.ExperimentResult
	// Counts is the overall outcome tally.
	Counts classify.Counts
	// CellCounts tallies outcomes per "scenario/attack" cell label.
	CellCounts *classify.LabeledCounts
	// Failures are the quarantined experiments across all cells.
	Failures []core.ExperimentFailure
	// FailureCounts tallies the failure classes.
	FailureCounts core.FailureCounts
}

// GridSpan returns the first expNr of cells laid out contiguously and
// their total number of grid points.
func GridSpan(cells []MatrixCell) (base, total int) {
	if len(cells) > 0 {
		base = cells[0].Setup.Base
	}
	for _, c := range cells {
		total += c.Setup.NumExperiments()
	}
	return base, total
}

// Matrix is a campaign grid as runner cells — a matrix campaign, or a
// single campaign as one unlabeled cell — plus one engine slot per
// scenario. Between Run calls the slot of the last scenario a run
// touched keeps its engine, and with it the scenario's golden run,
// workspace pool and prefix checkpoints: a caller that runs the grid
// range by range (the fabric executor) simulates each scenario's golden
// run once, not once per call. The slots are laid out on the first Run,
// so Cells must not change between calls. A Matrix is not safe for
// concurrent use.
type Matrix struct {
	Cells []MatrixCell

	// scenarios holds one engine slot per run of consecutive cells with
	// one scenario label; cellScenario maps each cell to its slot.
	scenarios    []*scenarioEngine
	cellScenario []*scenarioEngine
}

// RunMatrix runs cells once through a new Matrix.
func RunMatrix(ctx context.Context, cells []MatrixCell, opts Options, sinks ...Sink) (*MatrixResult, error) {
	return (&Matrix{Cells: cells}).Run(ctx, opts, sinks...)
}

// Run executes the cells against one Options set, streaming all results
// to the shared sinks. Every cell's same-start groups feed one worker
// pool in matrix order behind one release frontier, so a worker that
// finishes a cell's last group starts on the next cell's groups instead
// of waiting for the cell to drain. Consecutive cells of one scenario
// label share an engine — its golden run is simulated once. The first
// scenario's engine is built before the pool starts, each later one by
// the first group that needs it, and each is dropped once its
// scenario's last group completes, so a run holds at most one engine
// beyond the scenario it is working through. Checkpoint groups never
// span cells: the group key is effectively (scenario, attack, start).
// Shard, resume and quarantine semantics apply to the flattened global
// grid exactly as they do to a single campaign: expNr is globally unique
// and contiguous across cells, sinks receive rows in global grid order,
// and Options.MaxFailures is a whole-matrix budget.
func (m *Matrix) Run(ctx context.Context, opts Options, sinks ...Sink) (*MatrixResult, error) {
	cells := m.Cells
	if len(cells) == 0 {
		return nil, errors.New("runner: matrix has no cells")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	// The global expNr space must be contiguous in cell order — sharding
	// and merge correctness depend on it.
	base := cells[0].Setup.Base
	for i, cell := range cells {
		if cell.Setup.Base != base {
			return nil, fmt.Errorf("runner: matrix cell %d (%s/%s) has base %d, want %d",
				i, cell.Scenario, cell.Attack, cell.Setup.Base, base)
		}
		if err := cell.Setup.Validate(); err != nil {
			return nil, cell.wrap(i, err)
		}
		base += cell.Setup.NumExperiments()
	}

	if m.cellScenario == nil {
		for i, cell := range cells {
			if i == 0 || cell.Scenario != cells[i-1].Scenario {
				m.scenarios = append(m.scenarios, &scenarioEngine{cfg: cell.Engine})
			}
			m.cellScenario = append(m.cellScenario, m.scenarios[len(m.scenarios)-1])
		}
	}
	runs := make([]*cellRun, len(cells))
	for i, cell := range cells {
		runs[i] = &cellRun{setup: cell.Setup, eng: m.cellScenario[i], wrap: func(err error) error { return cell.wrap(i, err) }}
	}
	specs := opts.selectGrid(runs)
	// An engine kept from the previous run serves this run if its
	// scenario is the first one this run touches; the last one this run
	// touches keeps its engine for the next.
	var first, last *scenarioEngine
	firstCell := -1
	for i, c := range runs {
		if c.hi > c.lo {
			if first == nil {
				first, firstCell = c.eng, i
			}
			last = c.eng
		}
	}
	for _, s := range m.scenarios {
		s.groups, s.err = 0, nil
		s.keep = s == last
		if s != first {
			s.eng = nil
		}
	}

	// The first scenario's golden run precedes the pool, as a single
	// campaign's does: built inside a worker, with the other worker
	// blocked on it, it cost paper-delay about 10% of its CPU time on 2
	// workers. Later scenarios build inside the pool, overlapping the
	// previous scenario's last groups.
	if first != nil {
		if _, err := first.acquire(ctx); err != nil {
			return nil, cells[firstCell].wrap(firstCell, err)
		}
	}
	r := &Runner{opts: opts, sinks: sinks, met: newRunnerMetrics(opts.Metrics)}
	results, err := r.run(ctx, runs, specs)
	for _, s := range m.scenarios {
		if !s.keep {
			s.eng = nil // a failed run, or a first scenario with no groups
		}
	}
	if err != nil {
		return nil, err
	}

	out := &MatrixResult{CellCounts: &classify.LabeledCounts{}}
	for i, cell := range cells {
		res := results[i]
		if c := runs[i]; c.hi > c.lo {
			// A scenario whose selected points were all resumed has run no
			// group; its golden run still labels the result.
			if res.Golden, res.Thresholds, err = c.eng.golden(ctx); err != nil {
				return nil, cell.wrap(i, err)
			}
		} else {
			// No grid point of this cell survives the shard/range filter:
			// its engine (and golden run) was never needed. The empty
			// CellResult keeps the matrix shape intact for reporting.
			res = &core.CampaignResult{Setup: cell.Setup}
		}
		out.Cells = append(out.Cells, CellResult{Scenario: cell.Scenario, Attack: cell.Attack, Result: res})
		out.Experiments = append(out.Experiments, res.Experiments...)
		for _, e := range res.Experiments {
			out.Counts.Add(e.Outcome)
			out.CellCounts.Add(cell.Scenario+"/"+cell.Attack, e.Outcome)
		}
		out.Failures = append(out.Failures, res.Failures...)
		for _, f := range res.Failures {
			class, cerr := core.ParseFailureClass(f.Class)
			if cerr != nil {
				class = core.FailError
			}
			out.FailureCounts.Add(class)
		}
	}
	return out, nil
}

// scenarioEngine is one scenario's engine slot. Within a run, the first
// caller that needs the engine builds it and runs its golden run; every
// group of the scenario shares it, and it is dropped when the scenario's
// last group completes unless keep is set. A run therefore holds the
// engines of the scenarios it has groups of queued or running — in
// matrix order, the one it is working through plus at most one it is
// finishing — and a kept one.
type scenarioEngine struct {
	cfg    core.EngineConfig
	keep   bool
	groups int // groups queued or running; set before the pool starts

	mu     sync.Mutex
	eng    *core.Engine
	err    error
	built  bool // gold and thresh hold the golden run's outcome
	gold   core.GoldenResult
	thresh classify.Thresholds
}

// acquire returns the scenario's engine, building it and running its
// golden run on first use. A build error sticks: every later group of
// the scenario fails with it.
func (s *scenarioEngine) acquire(ctx context.Context) (*core.Engine, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eng == nil && s.err == nil {
		eng, err := core.NewEngine(s.cfg)
		if err == nil {
			err = eng.EnsureGolden(ctx)
		}
		if err != nil {
			s.err = err
		} else {
			s.eng, s.built = eng, true
			s.gold, _ = eng.Golden()
			s.thresh = eng.Thresholds()
		}
	}
	return s.eng, s.err
}

// groupDone retires one completed group, dropping the engine after the
// scenario's last one unless it is kept.
func (s *scenarioEngine) groupDone() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.groups--
	if s.groups == 0 && !s.keep {
		s.eng = nil
	}
}

// golden reports the scenario's golden-run outcome and thresholds,
// building the engine if no group did.
func (s *scenarioEngine) golden(ctx context.Context) (core.GoldenResult, classify.Thresholds, error) {
	if !s.built {
		if _, err := s.acquire(ctx); err != nil {
			return core.GoldenResult{}, classify.Thresholds{}, err
		}
		if !s.keep {
			s.eng = nil
		}
	}
	return s.gold, s.thresh, nil
}

// wrap names cell i in err. A single campaign's cell carries no scenario
// label and adds nothing, so its errors read exactly as Runner.Run's.
func (c MatrixCell) wrap(i int, err error) error {
	if c.Scenario == "" {
		return err
	}
	return fmt.Errorf("runner: matrix cell %d (%s/%s): %w", i, c.Scenario, c.Attack, err)
}
