package runner

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"comfase/internal/analysis"
	"comfase/internal/core"
)

// runForEquivalence executes the chaos grid once with the given
// checkpoint setting and returns the CSV bytes plus the quarantined
// failures in grid order.
func runForEquivalence(t *testing.T, setup core.CampaignSetup, opts Options, disable bool) (string, []core.ExperimentFailure) {
	t.Helper()
	opts.DisableCheckpoints = disable
	quarantine := &MemoryFailureSink{}
	opts.Quarantine = quarantine
	var csv bytes.Buffer
	r, err := New(chaosEngine(t, 100_000), opts, NewCSVSink(&csv))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := r.Run(context.Background(), setup); err != nil {
		t.Fatalf("Run (checkpoints disabled=%v): %v", disable, err)
	}
	return csv.String(), quarantine.Failures
}

// referenceCSV is the campaign oracle: every grid point built fresh and
// run in grid order through RunExperimentCtx — no worker pool, prefix
// checkpoints or trie — exported as the single-campaign results CSV.
func referenceCSV(t *testing.T, eng *core.Engine, setup core.CampaignSetup) []byte {
	t.Helper()
	var exps []core.ExperimentResult
	for _, spec := range setup.Experiments() {
		res, err := eng.RunExperimentCtx(context.Background(), spec)
		if err != nil {
			t.Fatalf("experiment %v: %v", spec, err)
		}
		exps = append(exps, res)
	}
	var buf bytes.Buffer
	if err := analysis.ExperimentsCSV(&buf, exps); err != nil {
		t.Fatalf("ExperimentsCSV: %v", err)
	}
	return buf.Bytes()
}

// TestCheckpointCampaignEquivalence is the byte-equivalence proof for
// prefix-checkpoint forking: the same 200-point grid executed with
// checkpoints on and off must emit byte-identical result CSVs — on a
// healthy grid, on a sharded slice of it, and under the chaos fault
// schedule with retries and quarantine in play. The forked path is the
// default, so this test is the campaign-level pin that it changes
// nothing but wall-clock time.
func TestCheckpointCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple 200-experiment campaigns in -short mode")
	}
	setup := chaosGrid()

	t.Run("healthy", func(t *testing.T) {
		on, _ := runForEquivalence(t, setup, Options{Workers: 4}, false)
		off, _ := runForEquivalence(t, setup, Options{Workers: 4}, true)
		if on != off {
			t.Errorf("checkpointed CSV differs from fresh CSV:\non:\n%s\noff:\n%s", on, off)
		}
	})

	t.Run("sharded", func(t *testing.T) {
		// Sharding punches round-robin holes in each start's sibling
		// block; grouped scheduling must still emit the shard's rows in
		// grid order.
		opts := Options{Workers: 2, Shard: Shard{Index: 2, Count: 3}}
		on, _ := runForEquivalence(t, setup, opts, false)
		off, _ := runForEquivalence(t, setup, opts, true)
		if on != off {
			t.Errorf("sharded checkpointed CSV differs from fresh CSV:\non:\n%s\noff:\n%s", on, off)
		}
	})

	t.Run("chaos", func(t *testing.T) {
		// The full failure-containment stack on top: deterministic
		// panics, hangs and NaN corruption, one retry, unlimited failure
		// budget. Healthy rows must stay byte-identical and every
		// persistent failure must quarantine with the same class and
		// attempt count whether or not its first attempt was forked.
		opts := Options{Workers: 4, Retries: 1, MaxFailures: -1}
		chaosOn := setup
		var muOn sync.Mutex
		chaosOn.Factory = chaosFactory(&muOn, map[int]int{})
		on, onFails := runForEquivalence(t, chaosOn, opts, false)

		chaosOff := setup
		var muOff sync.Mutex
		chaosOff.Factory = chaosFactory(&muOff, map[int]int{})
		off, offFails := runForEquivalence(t, chaosOff, opts, true)

		if on != off {
			t.Errorf("chaos checkpointed CSV differs from fresh CSV:\non:\n%s\noff:\n%s", on, off)
		}
		if len(onFails) != len(offFails) {
			t.Fatalf("quarantine size: %d checkpointed, %d fresh", len(onFails), len(offFails))
		}
		for i := range onFails {
			a, b := onFails[i], offFails[i]
			// Stack traces legitimately differ between the forked and
			// fresh call paths; the classification contract is the
			// stable part.
			if a.Nr != b.Nr || a.Class != b.Class || a.Attempts != b.Attempts {
				t.Errorf("quarantine record %d differs: checkpointed {Nr:%d Class:%q Attempts:%d}, fresh {Nr:%d Class:%q Attempts:%d}",
					i, a.Nr, a.Class, a.Attempts, b.Nr, b.Class, b.Attempts)
			}
		}
	})
}
