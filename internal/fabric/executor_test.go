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

// TestExecutorWorkers: a config without runtime.workers runs the
// executor on one experiment thread, the meaning `comfase campaign`
// gives it; a negative setting is all cores, and ExecutorOptions.Workers
// (`work -workers N`) overrides either.
func TestExecutorWorkers(t *testing.T) {
	for _, tc := range []struct {
		runtime   string
		opt, want int
	}{
		{runtime: `{}`, opt: 0, want: 1},
		{runtime: `{"workers": -1}`, opt: 0, want: -1},
		{runtime: `{"workers": 4}`, opt: 0, want: 4},
		{runtime: `{}`, opt: 3, want: 3},
	} {
		cfg := `{"campaign": {"attack": "delay", "valuesS": {"values": [0.5]}, "startTimesS": {"values": [1]},
		  "durationsS": {"values": [1]}}, "runtime": ` + tc.runtime + `}`
		exec, err := NewExecutor([]byte(cfg), ExecutorOptions{Workers: tc.opt})
		if err != nil {
			t.Fatalf("NewExecutor(%s): %v", tc.runtime, err)
		}
		if got := exec.(*campaignExecutor).base.Workers; got != tc.want {
			t.Errorf("runtime %s, Workers option %d: executor runs %d workers, want %d", tc.runtime, tc.opt, got, tc.want)
		}
	}
}
