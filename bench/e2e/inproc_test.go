package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Small configs for the traced-vs-untraced check: a 2x2x2 delay grid,
// whose duration pairs chain through the checkpoint trie, and an 8-vehicle
// platoon under packet loss on the matrix path. Both use a 30 s horizon
// to stay fast under the race detector.
var tinyConfigs = map[string][]byte{
	"delay": mustJSON(obj{
		"scenario": obj{"totalSimTimeS": 30},
		"campaign": obj{
			"attack":      "delay",
			"valuesS":     values(0.4, 1.6),
			"startTimesS": values(17, 18.2),
			"durationsS":  values(2, 5),
		},
	}),
	"platoon": mustJSON(obj{
		"seed": 3,
		"matrix": obj{
			"scenarios": []obj{{"name": "platoon", "params": obj{"nrVehicles": 8, "totalSimTimeS": 30}}},
			"attacks": []obj{
				{"name": "packet-loss", "valuesS": values(0.5), "startTimesS": values(17, 18), "durationsS": values(3, 6)},
			},
		},
	}),
}

// TestTracedRunIsByteIdentical proves the layer wrappers forward every
// optional interface: the traced run writes the same bytes as the
// untraced one and takes the same execution path — the same forks, trie
// chains and fresh builds — rather than silently falling back to fresh
// builds, which would also be byte-identical.
func TestTracedRunIsByteIdentical(t *testing.T) {
	for name, cfg := range tinyConfigs {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			plain, err := runInProcess(context.Background(), cfg, filepath.Join(dir, "plain.csv"), nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer(&spanLog{t0: time.Now()}, 0)
			traced, err := runInProcess(context.Background(), cfg, filepath.Join(dir, "traced.csv"), tr)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := os.ReadFile(filepath.Join(dir, "plain.csv"))
			b, _ := os.ReadFile(filepath.Join(dir, "traced.csv"))
			if len(a) == 0 || !bytes.Equal(a, b) {
				t.Fatalf("traced CSV differs from the untraced one:\n%s\nvs\n%s", a, b)
			}
			for _, c := range []string{"engine.fresh_builds", "engine.checkpoint_forks", "engine.trie_suffix_forks", "kernel.events_executed"} {
				if plain[c] != traced[c] {
					t.Errorf("%s: untraced %d, traced %d", c, plain[c], traced[c])
				}
			}
			if plain["engine.checkpoint_forks"] == 0 {
				t.Error("no checkpoint forks: the check would not notice a wrapper that disables forking")
			}
			if tr.update.calls.Load() == 0 || tr.pathloss.calls.Load() == 0 || tr.maneuver.calls.Load() == 0 || tr.sinkPut.calls.Load() == 0 {
				t.Error("a layer wrapper saw no calls")
			}
		})
	}
}
