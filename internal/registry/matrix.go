package registry

import (
	"errors"
	"fmt"

	"comfase/internal/core"
	"comfase/internal/registry/param"
	"comfase/internal/sim/des"
)

// MatrixScenario selects one scenario cell axis entry.
type MatrixScenario struct {
	// Name is the registered scenario family.
	Name string
	// Label identifies the cell in result rows (default: Name). Two
	// parameterisations of the same family need distinct labels.
	Label string
	// Params parameterises the family (validated against its schema).
	Params param.Params
}

// MatrixAttack selects one attack axis entry with its sweep vectors.
type MatrixAttack struct {
	// Name is the registered attack family.
	Name string
	// Params are the family's extra parameters.
	Params param.Params
	// Targets are the attacked vehicle IDs (default: vehicle.2).
	Targets []string
	// Values, Starts, Durations are the per-cell sweep vectors.
	Values    []float64
	Starts    []des.Time
	Durations []des.Time
}

// Matrix is a campaign over the cross product scenarios x attacks: each
// pair is one cell running the attack's full Starts x Values x Durations
// grid in that scenario.
type Matrix struct {
	Scenarios []MatrixScenario
	Attacks   []MatrixAttack
}

// Cell is one expanded (scenario, attack) pair. Cells are ordered
// scenario-major, attack-minor, and experiment numbers are globally
// contiguous across cells (Setup.Base carries the offset), so range,
// resume and merge semantics work unchanged on the flattened grid.
type Cell struct {
	// Index is the cell's position in the expansion order.
	Index int
	// Scenario is the cell's scenario label.
	Scenario string
	// Attack is the cell's attack family name.
	Attack string
	// Def is the resolved scenario definition.
	Def ScenarioDef
	// Setup is the cell's campaign grid; Setup.Scenario and
	// Setup.AttackName are stamped for result-row identity.
	Setup core.CampaignSetup
}

// Expand resolves the matrix into its deterministic cell list. The
// expansion is a pure function of the matrix: same input, same cell
// order, same experiment numbering — the property range-split runs rely on.
func (m Matrix) Expand() ([]Cell, error) {
	if len(m.Scenarios) == 0 {
		return nil, errors.New("registry: matrix needs at least one scenario")
	}
	if len(m.Attacks) == 0 {
		return nil, errors.New("registry: matrix needs at least one attack")
	}
	labels := make(map[string]bool, len(m.Scenarios))
	cells := make([]Cell, 0, len(m.Scenarios)*len(m.Attacks))
	base := 0
	for _, ms := range m.Scenarios {
		label := ms.Label
		if label == "" {
			label = ms.Name
		}
		if labels[label] {
			return nil, fmt.Errorf("registry: duplicate scenario label %q (set Label to disambiguate)", label)
		}
		labels[label] = true
		def, err := BuildScenario(ms.Name, ms.Params)
		if err != nil {
			return nil, fmt.Errorf("registry: matrix scenario %q: %w", label, err)
		}
		for _, ma := range m.Attacks {
			if _, err := LookupAttack(ma.Name); err != nil {
				return nil, err
			}
			targets := ma.Targets
			if len(targets) == 0 {
				targets = []string{"vehicle.2"}
			}
			setup := core.CampaignSetup{
				AttackName: ma.Name,
				Params:     ma.Params,
				Scenario:   label,
				Base:       base,
				Targets:    targets,
				Values:     ma.Values,
				Starts:     ma.Starts,
				Durations:  ma.Durations,
			}
			if err := setup.Validate(); err != nil {
				return nil, fmt.Errorf("registry: matrix cell %s/%s: %w", label, ma.Name, err)
			}
			cells = append(cells, Cell{
				Index:    len(cells),
				Scenario: label,
				Attack:   ma.Name,
				Def:      def,
				Setup:    setup,
			})
			base += setup.NumExperiments()
		}
	}
	return cells, nil
}

// NumExperiments returns the flattened grid size across all cells.
func (m Matrix) NumExperiments() (int, error) {
	cells, err := m.Expand()
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range cells {
		total += c.Setup.NumExperiments()
	}
	return total, nil
}
