package runner

import (
	"context"
	"errors"
	"fmt"

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
// single campaign as one unlabeled cell — plus the engine of the most
// recently run scenario. That engine, and with it the scenario's golden
// run, workspace pool and prefix checkpoints, survives across Run calls:
// a caller that runs the grid range by range (the fabric executor)
// simulates each scenario's golden run once, not once per call. The
// engine is keyed by scenario label, so Cells must not change between
// calls. A Matrix is not safe for concurrent use.
type Matrix struct {
	Cells []MatrixCell

	eng         *core.Engine
	engScenario string
}

// RunMatrix runs cells once through a new Matrix.
func RunMatrix(ctx context.Context, cells []MatrixCell, opts Options, sinks ...Sink) (*MatrixResult, error) {
	return (&Matrix{Cells: cells}).Run(ctx, opts, sinks...)
}

// Run executes the cells in matrix order against one Options set,
// streaming all results to the shared sinks. Consecutive cells of one
// scenario label share an engine — its golden run is simulated once and
// its workspace pool and prefix checkpoints are scoped to the cell, so
// the checkpoint group key is effectively (scenario, attack start).
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
	total := 0
	selected := make([]int, len(cells)) // shard+range-selected points per cell
	for i, cell := range cells {
		if cell.Setup.Base != base {
			return nil, fmt.Errorf("runner: matrix cell %d (%s/%s) has base %d, want %d",
				i, cell.Scenario, cell.Attack, cell.Setup.Base, base)
		}
		if err := cell.Setup.Validate(); err != nil {
			return nil, cell.wrap(i, err)
		}
		n := cell.Setup.NumExperiments()
		base += n
		for nr := cell.Setup.Base; nr < cell.Setup.Base+n; nr++ {
			if opts.Shard.Contains(nr) && opts.Range.Contains(nr) {
				selected[i]++
			}
		}
		total += selected[i]
	}

	out := &MatrixResult{CellCounts: &classify.LabeledCounts{}}
	remainingFailures := opts.MaxFailures
	doneOffset := 0
	for i, cell := range cells {
		if selected[i] == 0 {
			// No grid point of this cell survives the shard/range filter:
			// skip its engine (and golden run) entirely. The empty
			// CellResult keeps the matrix shape intact for reporting.
			out.Cells = append(out.Cells, CellResult{
				Scenario: cell.Scenario,
				Attack:   cell.Attack,
				Result:   &core.CampaignResult{Setup: cell.Setup},
			})
			continue
		}
		if m.eng == nil || cell.Scenario != m.engScenario {
			eng, err := core.NewEngine(cell.Engine)
			if err != nil {
				return nil, cell.wrap(i, err)
			}
			m.eng, m.engScenario = eng, cell.Scenario
		}
		cellOpts := opts
		cellOpts.MaxFailures = remainingFailures
		if opts.Progress != nil {
			offset := doneOffset
			cellOpts.Progress = func(done, _ int) { opts.Progress(offset+done, total) }
		}
		r, err := New(m.eng, cellOpts, sinks...)
		if err != nil {
			return nil, err
		}
		res, err := r.Run(ctx, cell.Setup)
		if err != nil {
			return nil, cell.wrap(i, err)
		}
		newFailures := 0
		for _, f := range res.Failures {
			if _, resumed := opts.ResumeFailures[f.Nr]; !resumed {
				newFailures++
			}
		}
		if remainingFailures >= 0 {
			remainingFailures -= newFailures
		}
		doneOffset += len(res.Experiments) + len(res.Failures)
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

// wrap names cell i in err. A single campaign's cell carries no scenario
// label and adds nothing, so its errors read exactly as Runner.Run's.
func (c MatrixCell) wrap(i int, err error) error {
	if c.Scenario == "" {
		return err
	}
	return fmt.Errorf("runner: matrix cell %d (%s/%s): %w", i, c.Scenario, c.Attack, err)
}
