package fabric

import (
	"context"
	"testing"

	"comfase/internal/obs"
)

// TestExecutorKeepsEngineAcrossLeases pins that the production executor
// simulates a scenario's golden run once, however many leases it runs:
// three ranges over a one-scenario, two-attack matrix (the middle range
// spans both cells) and over a single campaign.
func TestExecutorKeepsEngineAcrossLeases(t *testing.T) {
	for _, tc := range []struct{ name, cfg string }{
		{name: "matrix", cfg: `{"matrix": {
		  "scenarios": [{"name": "platoon", "params": {"totalSimTimeS": 5}}],
		  "attacks": [
		    {"name": "delay", "valuesS": {"values": [0.5]}, "startTimesS": {"values": [1, 2]}, "durationsS": {"values": [1]}},
		    {"name": "packet-loss", "valuesS": {"values": [0.5]}, "startTimesS": {"values": [1, 2]}, "durationsS": {"values": [1]}}
		  ]}}`},
		{name: "single", cfg: `{"scenario": {"totalSimTimeS": 5}, "campaign": {"attack": "delay",
		  "valuesS": {"values": [0.5, 1]}, "startTimesS": {"values": [1, 2]}, "durationsS": {"values": [1]}}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			exec, err := NewExecutor([]byte(tc.cfg), ExecutorOptions{Workers: 1, Metrics: reg})
			if err != nil {
				t.Fatalf("NewExecutor: %v", err)
			}
			rows := 0
			for _, r := range [][2]int{{0, 1}, {1, 3}, {3, 4}} {
				got, _, err := exec.Execute(context.Background(), r[0], r[1])
				if err != nil {
					t.Fatalf("Execute [%d,%d): %v", r[0], r[1], err)
				}
				rows += len(got)
			}
			if rows != 4 {
				t.Errorf("3 leases returned %d rows, want 4", rows)
			}
			if got := reg.Snapshot().Counters["engine.golden_runs"]; got != 1 {
				t.Errorf("engine.golden_runs = %d after 3 leases, want 1", got)
			}
		})
	}
}
