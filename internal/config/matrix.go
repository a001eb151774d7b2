package config

import (
	"errors"
	"fmt"

	"comfase/internal/core"
	"comfase/internal/registry"
	"comfase/internal/registry/param"
	"comfase/internal/runner"
	"comfase/internal/sim/des"
)

// MatrixScenarioConfig selects one registered scenario for the matrix.
type MatrixScenarioConfig struct {
	// Name is a registered scenario family (`comfase list`).
	Name string `json:"name"`
	// Label identifies the cell in result rows (default: Name); two
	// parameterisations of one family need distinct labels.
	Label string `json:"label,omitempty"`
	// Params parameterise the family (validated against its schema).
	Params map[string]any `json:"params,omitempty"`
}

// MatrixAttackConfig selects one registered attack with its sweep
// vectors; the vectors apply in every scenario cell.
type MatrixAttackConfig struct {
	// Name is a registered attack family (`comfase list`).
	Name string `json:"name"`
	// Params are the family's extra parameters.
	Params map[string]any `json:"params,omitempty"`
	// Targets are the attacked vehicle IDs (default: vehicle.2).
	Targets []string `json:"targets,omitempty"`
	// ValuesS, StartTimesS, DurationsS are the sweep vectors in the
	// units of the single-campaign section.
	ValuesS     Vector `json:"valuesS"`
	StartTimesS Vector `json:"startTimesS"`
	DurationsS  Vector `json:"durationsS"`
}

// MatrixConfig is the `matrix` section: the cross product of registered
// scenarios and attacks, expanded into one deterministic flat grid with
// globally contiguous experiment numbers. It is mutually exclusive with
// the single `campaign` section.
type MatrixConfig struct {
	Scenarios []MatrixScenarioConfig `json:"scenarios"`
	Attacks   []MatrixAttackConfig   `json:"attacks"`
}

// Build expands the matrix into runner cells. comm is the file-level
// communication override applied to every cell (nil = each scenario's
// own model); every cell's engine takes rt's engine knobs.
func (m MatrixConfig) Build(seed uint64, comm *CommConfig, rt RuntimeSettings) ([]runner.MatrixCell, error) {
	spec := registry.Matrix{}
	for _, s := range m.Scenarios {
		spec.Scenarios = append(spec.Scenarios, registry.MatrixScenario{
			Name:   s.Name,
			Label:  s.Label,
			Params: param.Params(s.Params),
		})
	}
	for _, a := range m.Attacks {
		values, err := a.ValuesS.Expand()
		if err != nil {
			return nil, fmt.Errorf("config: matrix attack %q values: %w", a.Name, err)
		}
		starts, err := a.StartTimesS.Expand()
		if err != nil {
			return nil, fmt.Errorf("config: matrix attack %q startTimes: %w", a.Name, err)
		}
		durations, err := a.DurationsS.Expand()
		if err != nil {
			return nil, fmt.Errorf("config: matrix attack %q durations: %w", a.Name, err)
		}
		ma := registry.MatrixAttack{
			Name:    a.Name,
			Params:  param.Params(a.Params),
			Targets: a.Targets,
			Values:  values,
		}
		for _, s := range starts {
			ma.Starts = append(ma.Starts, des.FromSeconds(s))
		}
		for _, d := range durations {
			ma.Durations = append(ma.Durations, des.FromSeconds(d))
		}
		spec.Attacks = append(spec.Attacks, ma)
	}
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	out := make([]runner.MatrixCell, 0, len(cells))
	for _, c := range cells {
		cm := c.Def.Comm
		if comm != nil {
			built, err := comm.Build()
			if err != nil {
				return nil, err
			}
			cm = built
		}
		cell := runner.MatrixCell{
			Scenario: c.Scenario,
			Attack:   c.Attack,
			Engine:   core.EngineConfig{Scenario: c.Def.Traffic, Comm: cm, Controllers: c.Def.Controllers, Seed: seed},
			Setup:    c.Setup,
		}
		rt.applyEngine(&cell.Engine)
		out = append(out, cell)
	}
	return out, nil
}

// isZero reports whether the campaign section was left empty.
func (c CampaignConfig) isZero() bool {
	return c.Attack == "" && len(c.Params) == 0 && len(c.Targets) == 0 &&
		len(c.ValuesS.Values) == 0 && c.ValuesS.Range == nil &&
		len(c.StartTimesS.Values) == 0 && c.StartTimesS.Range == nil &&
		len(c.DurationsS.Values) == 0 && c.DurationsS.Range == nil
}

// buildMatrix validates section exclusivity and expands f.Matrix.
func buildMatrix(f File, seed uint64, rt RuntimeSettings) ([]runner.MatrixCell, error) {
	if !f.Campaign.isZero() {
		return nil, errors.New("config: matrix and campaign sections are mutually exclusive")
	}
	if f.Scenario != (ScenarioConfig{}) || f.Controller != "" {
		return nil, errors.New("config: matrix runs parameterise scenarios per cell; drop the top-level scenario/controller sections")
	}
	var comm *CommConfig
	if f.Comm != (CommConfig{}) {
		comm = &f.Comm
	}
	return f.Matrix.Build(seed, comm, rt)
}
