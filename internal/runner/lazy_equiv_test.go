package runner

import (
	"bytes"
	"context"
	"testing"

	"comfase/internal/core"
	"comfase/internal/registry/param"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
)

// TestLazyReceptionCampaignEquivalence runs a small grid of every attack
// family on a 4- and a 16-vehicle platoon on a production engine and on
// a reference engine (core.EngineConfig.Reference), which turns reception
// elision and every other exact fast path off and builds every
// experiment fresh instead of forking it from a prefix checkpoint: the
// two result CSVs must be byte-identical.
func TestLazyReceptionCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns in -short mode")
	}
	families := []struct {
		name   string
		value  float64
		params param.Params
	}{
		{"delay", 0.6, nil},
		{"dos", 60, nil},
		{"packet-loss", 0.5, nil},
		{"replay", 1.0, nil},
		{"jamming", 10, nil},
		{"falsification", 5, param.Params{"field": "accel", "mode": "offset"}},
		{"sybil", 8, param.Params{"index": 1, "speedMps": 20}},
		{"omission", 1, nil},
		{"corruption", 2, param.Params{"sigmaPosM": 0.5}},
		{"calibration", 1, param.Params{"posOffsetM": 3}},
	}
	run := func(n int, reference bool, setup core.CampaignSetup) []byte {
		ts := scenario.PaperScenario()
		ts.NrVehicles = n
		ts.TotalSimTime = 6 * des.Second
		eng, err := core.NewEngine(core.EngineConfig{
			Scenario: ts, Comm: scenario.PaperCommModel(), Seed: 1, Reference: reference,
		})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		var buf bytes.Buffer
		r, err := New(eng, Options{Workers: 2}, NewCSVSink(&buf))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := r.Run(context.Background(), setup); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return buf.Bytes()
	}
	for _, n := range []int{4, 16} {
		for _, f := range families {
			setup := core.CampaignSetup{
				AttackName: f.name,
				Params:     f.params,
				Targets:    []string{"vehicle.2"},
				Values:     []float64{f.value},
				Starts:     []des.Time{2 * des.Second, 3 * des.Second},
				Durations:  []des.Time{des.Second, 2 * des.Second},
			}
			got, want := run(n, false, setup), run(n, true, setup)
			if !bytes.Equal(got, want) {
				t.Errorf("%s, %d vehicles: CSVs differ:\nproduction:\n%s\nreference:\n%s", f.name, n, got, want)
			}
		}
	}
}
