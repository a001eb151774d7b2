package runner

import (
	"bytes"
	"context"
	"math"
	"testing"

	"comfase/internal/core"
	"comfase/internal/registry/param"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
)

// TestLazyReceptionCampaignEquivalence runs a small grid of every attack
// family on a 4- and a 16-vehicle platoon with reception elision on and
// off (an event budget too large to abort turns it off), and with
// elision on but every experiment built fresh instead of forked from a
// prefix checkpoint: the three result CSVs must be byte-identical.
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
	run := func(n int, budget uint64, fresh bool, setup core.CampaignSetup) []byte {
		ts := scenario.PaperScenario()
		ts.NrVehicles = n
		ts.TotalSimTime = 6 * des.Second
		eng, err := core.NewEngine(core.EngineConfig{
			Scenario: ts, Comm: scenario.PaperCommModel(), Seed: 1, EventBudget: budget,
		})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		var buf bytes.Buffer
		r, err := New(eng, Options{Workers: 2, DisableCheckpoints: fresh}, NewCSVSink(&buf))
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
			lazy, eager, fresh := run(n, 0, false, setup), run(n, math.MaxUint64, false, setup), run(n, 0, true, setup)
			if !bytes.Equal(lazy, eager) || !bytes.Equal(lazy, fresh) {
				t.Errorf("%s, %d vehicles: CSVs differ:\nlazy:\n%s\neager:\n%s\nfresh:\n%s", f.name, n, lazy, eager, fresh)
			}
		}
	}
}
