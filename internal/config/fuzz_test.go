package config

import (
	"strings"
	"testing"

	"comfase/internal/runner"
)

// FuzzParse ensures arbitrary (possibly hostile) config documents never
// panic the parser: they either build a valid experiment or return an
// error.
func FuzzParse(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"seed": 7}`)
	f.Add(`{"campaign": {"attack": "delay",
	  "valuesS": {"values": [1]},
	  "startTimesS": {"values": [17]},
	  "durationsS": {"values": [10]}}}`)
	f.Add(`{"scenario": {"nrVehicles": -3}}`)
	f.Add(`{"comm": {"pathLoss": "tworay", "fading": "nakagami"}}`)
	f.Add(`{"campaign": {"valuesS": {"range": {"from": 3, "to": 1, "step": 0}}}}`)
	f.Add(`[1,2,3]`)
	f.Add(`"not an object"`)
	f.Add(`{"scenario": {"maneuver": {"type": "braking", "decelMps2": 1e308}}}`)

	f.Fuzz(func(t *testing.T, doc string) {
		p, err := Parse(strings.NewReader(doc))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Anything accepted must be internally consistent.
		if p.Seed == 0 {
			t.Errorf("accepted config with zero seed")
		}
		if len(p.Cells) > 0 {
			// Matrix config: the per-cell setups carry the invariants.
			validateCells(t, p.Cells)
			return
		}
		if err := p.Engine.Scenario.Validate(); err != nil {
			t.Errorf("accepted invalid scenario: %v", err)
		}
		if err := p.Engine.Comm.Validate(); err != nil {
			t.Errorf("accepted invalid comm model: %v", err)
		}
		if err := p.Campaign.Validate(); err != nil {
			t.Errorf("accepted invalid campaign: %v", err)
		}
	})
}

// validateCells asserts the invariants every accepted matrix expansion
// must hold: valid per-cell scenario/comm/setup and a contiguous global
// expNr space in cell order.
func validateCells(t *testing.T, cells []runner.MatrixCell) {
	t.Helper()
	base := 0
	for i, cell := range cells {
		if err := cell.Engine.Scenario.Validate(); err != nil {
			t.Errorf("cell %d: accepted invalid scenario: %v", i, err)
		}
		if err := cell.Engine.Comm.Validate(); err != nil {
			t.Errorf("cell %d: accepted invalid comm model: %v", i, err)
		}
		if err := cell.Setup.Validate(); err != nil {
			t.Errorf("cell %d: accepted invalid setup: %v", i, err)
		}
		if cell.Setup.Base != base {
			t.Errorf("cell %d: base %d, want contiguous %d", i, cell.Setup.Base, base)
		}
		if cell.Scenario == "" || cell.Attack == "" {
			t.Errorf("cell %d: empty identity %q/%q", i, cell.Scenario, cell.Attack)
		}
		base += cell.Setup.NumExperiments()
	}
}

// FuzzMatrixConfigDecode drives arbitrary documents through the matrix
// section: accepted documents must expand to a well-formed grid and —
// the property range/resume/merge rest on — re-expand to the identical
// grid on a second parse.
func FuzzMatrixConfigDecode(f *testing.F) {
	f.Add(`{"matrix": {
	  "scenarios": [{"name": "paper-platoon"}],
	  "attacks": [{"name": "delay",
	    "valuesS": {"values": [1]},
	    "startTimesS": {"values": [17]},
	    "durationsS": {"values": [10]}}]}}`)
	f.Add(`{"matrix": {
	  "scenarios": [{"name": "platoon", "label": "p8", "params": {"nrVehicles": 8}},
	                {"name": "teleop", "params": {"watchdogS": 0.5}}],
	  "attacks": [{"name": "dos",
	    "valuesS": {"values": [60]},
	    "startTimesS": {"range": {"from": 17, "to": 21, "step": 2}},
	    "durationsS": {"values": [60]}}]}}`)
	f.Add(`{"matrix": {"scenarios": [{"name": "platoon", "params": {"nrVehicles": 99}}],
	  "attacks": [{"name": "delay"}]}}`)
	f.Add(`{"matrix": {"scenarios": [{"name": "nope"}], "attacks": [{"name": "delay"}]}}`)
	f.Add(`{"campaign": {"attack": "delay"}, "matrix": {"scenarios": [], "attacks": []}}`)
	f.Add(`{"matrix": {}}`)

	f.Fuzz(func(t *testing.T, doc string) {
		p, err := Parse(strings.NewReader(doc))
		if err != nil {
			return
		}
		if len(p.Cells) == 0 {
			return
		}
		validateCells(t, p.Cells)
		// Determinism: the same document expands to the same grid.
		again, err := Parse(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("second parse rejected an accepted document: %v", err)
		}
		if len(again.Cells) != len(p.Cells) {
			t.Fatalf("re-expansion has %d cells, want %d", len(again.Cells), len(p.Cells))
		}
		for i := range p.Cells {
			a, b := p.Cells[i], again.Cells[i]
			if a.Scenario != b.Scenario || a.Attack != b.Attack || a.Setup.Base != b.Setup.Base ||
				a.Setup.NumExperiments() != b.Setup.NumExperiments() {
				t.Errorf("cell %d differs across parses: %s/%s base=%d n=%d vs %s/%s base=%d n=%d",
					i, a.Scenario, a.Attack, a.Setup.Base, a.Setup.NumExperiments(),
					b.Scenario, b.Attack, b.Setup.Base, b.Setup.NumExperiments())
			}
		}
	})
}
