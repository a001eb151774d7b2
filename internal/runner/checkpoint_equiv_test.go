package runner

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"comfase/internal/analysis"
	"comfase/internal/core"
	"comfase/internal/obs"
)

// runForEquivalence executes the chaos grid once, on the chaos engine or
// on its reference twin (referenceEngine), and returns the CSV bytes plus
// the quarantined failures in grid order.
func runForEquivalence(t *testing.T, setup core.CampaignSetup, opts Options, reference bool) (string, []core.ExperimentFailure) {
	t.Helper()
	quarantine := &MemoryFailureSink{}
	opts.Quarantine = quarantine
	eng := chaosEngine(t, 100_000)
	if reference {
		eng = referenceEngine(t, eng)
	}
	var csv bytes.Buffer
	r, err := New(eng, opts, NewCSVSink(&csv))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := r.Run(context.Background(), setup); err != nil {
		t.Fatalf("Run (reference=%v): %v", reference, err)
	}
	return csv.String(), quarantine.Failures
}

// referenceEngine returns a new engine on eng's configuration with every
// exact fast path off (core.EngineConfig.Reference): its runner builds
// every experiment from t=0, with no prefix checkpoint or trie.
func referenceEngine(t *testing.T, eng *core.Engine) *core.Engine {
	t.Helper()
	cfg := eng.Config()
	cfg.Reference = true
	ref, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return ref
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

// checkResumeHoles runs the chaos grid with every grid point whose
// expNr%3 != 1 resumed from the fresh reference run, which punches
// round-robin holes into each start's sibling block. Through the
// checkpoint trie and on the fresh path, the run must emit exactly the
// reference rows with expNr%3 == 1, in grid order. The holed blocks
// still fork 50 siblings from prefix checkpoints and 17 from trie
// boundaries; the counts pin that the comparison is not vacuous.
func checkResumeHoles(t *testing.T, setup core.CampaignSetup) {
	t.Helper()
	ref := referenceCSV(t, chaosEngine(t, 100_000), setup)
	resume, err := ReadResults(bytes.NewReader(ref))
	if err != nil {
		t.Fatalf("ReadResults: %v", err)
	}
	for nr := range resume {
		if nr%3 == 1 {
			delete(resume, nr)
		}
	}
	lines := strings.SplitAfter(string(ref), "\n")
	want := lines[0]
	for _, line := range lines[1:] {
		if nr, err := strconv.Atoi(line[:strings.IndexByte(line+",", ',')]); err == nil && nr%3 == 1 {
			want += line
		}
	}

	reg := obs.NewRegistry()
	opts := Options{Workers: 2, Resume: resume}
	on, _, _ := runTrieEquiv(t, trieChaosEngine(t, 100_000, reg, false), setup, opts)
	off, _, _ := runTrieEquiv(t, referenceEngine(t, trieChaosEngine(t, 100_000, nil, false)), setup, opts)
	if on != want || off != want {
		t.Errorf("resume-holed CSVs differ from the reference rows:\nwant:\n%s\ntrie:\n%s\nfresh:\n%s", want, on, off)
	}
	for name, want := range map[string]uint64{"engine.checkpoint_forks": 50, "engine.trie_suffix_forks": 17} {
		if got := reg.Counter(name).Load(); got != want {
			t.Errorf("%s = %d on the holed grid, want %d", name, got, want)
		}
	}
}

// TestCheckpointCampaignEquivalence is the byte-equivalence proof for
// prefix-checkpoint forking: the same 200-point grid executed with
// checkpoints on and off must emit byte-identical result CSVs — on a
// healthy grid, on a resume-holed slice of it, and under the chaos fault
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

	t.Run("resume holes", func(t *testing.T) {
		// Grouped scheduling must emit the holed blocks' rows in grid
		// order.
		checkResumeHoles(t, setup)
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
