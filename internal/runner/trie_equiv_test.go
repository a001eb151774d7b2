package runner

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"comfase/internal/analysis"
	"comfase/internal/core"
	"comfase/internal/mac"
	"comfase/internal/nic"
	"comfase/internal/obs"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
)

// trieChaosEngine is the chaos scenario with the checkpoint-trie knobs
// under test. The early-exit variant keeps the default (tight) stability
// tolerance — a loose tolerance genuinely changes classifications, since
// a platoon whose speeds merely hover near the golden profile can still
// brake past the negligible/benign boundary later — but shortens the
// hold so verdicts actually decide inside the 5 s horizon.
func trieChaosEngine(t *testing.T, budget uint64, reg *obs.Registry, earlyExit bool) *core.Engine {
	t.Helper()
	ts := scenario.PaperScenario()
	ts.TotalSimTime = 5 * des.Second
	cfg := core.EngineConfig{
		Scenario:          ts,
		Comm:              scenario.PaperCommModel(),
		Seed:              1,
		CancelCheckEvents: 256,
		Invariants:        true,
		EventBudget:       budget,
		Metrics:           reg,
	}
	if earlyExit {
		cfg.EarlyExit = true
		cfg.EarlyExitHold = des.Second
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng
}

// runTrieEquiv executes the grid on the given engine — through the
// checkpoint trie, or on the fresh path for a reference engine
// (referenceEngine) — and returns the CSV bytes, the classified results
// in grid order and the quarantined failures.
func runTrieEquiv(t *testing.T, eng *core.Engine, setup core.CampaignSetup, opts Options) (string, []core.ExperimentResult, []core.ExperimentFailure) {
	t.Helper()
	quarantine := &MemoryFailureSink{}
	opts.Quarantine = quarantine
	var csv bytes.Buffer
	r, err := New(eng, opts, NewCSVSink(&csv))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := r.Run(context.Background(), setup)
	if err != nil {
		t.Fatalf("Run (reference=%v): %v", eng.Config().Reference, err)
	}
	return csv.String(), res.Experiments, quarantine.Failures
}

// trieBombModel is a chainable interceptor that panics the moment the
// simulation clock reaches its trigger — a deterministic, purely
// time-keyed failure that detonates inside a chained suffix rather than
// in the model factory, so it poisons an inner trie node mid-run.
type trieBombModel struct {
	inner   *core.DelayAttack
	trigger des.Time
}

func (m *trieBombModel) Name() string              { return "trie-bomb" }
func (m *trieBombModel) Targets() []string         { return m.inner.Targets() }
func (m *trieBombModel) ChainableAcrossDurations() {}

func (m *trieBombModel) Intercept(t des.Time, src, dst string, f mac.Frame) nic.Verdict {
	if t >= m.trigger {
		panic(fmt.Sprintf("trie bomb detonated at %v", t))
	}
	return m.inner.Intercept(t, src, dst, f)
}

// trieBombFactory plants a bomb on one attack value, 1.2 s into the
// attack window: the two longest durations of every bombed chain cross
// the trigger, so with the trie enabled the panic fires while running a
// chained suffix forked from a mid-attack boundary.
func trieBombFactory() core.ModelFactory {
	return func(spec core.ExperimentSpec, _ des.Time, _ uint64) (core.AttackModel, error) {
		inner, err := core.NewDelayAttack(des.FromSeconds(spec.Value), spec.Targets...)
		if err != nil {
			return nil, err
		}
		if spec.Value == 0.6 {
			return &trieBombModel{inner: inner, trigger: spec.Start + 1200*des.Millisecond}, nil
		}
		return inner, nil
	}
}

// TestTrieCampaignEquivalence is the byte-equivalence proof for the
// checkpoint trie: the same 200-point grid executed through the trie and
// on the fresh path must emit byte-identical result CSVs — on a healthy
// grid, on a resume-holed slice, under the chaos fault schedule, and with
// early exit enabled on both sides (chain boundaries only exist where
// the shorter sibling finished undecided, so fresh and chained runs stop
// at the same aligned instants). The trie is the default, so
// this is the campaign-level pin that it changes nothing but wall-clock
// time.
func TestTrieCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple 200-experiment campaigns in -short mode")
	}
	setup := chaosGrid()

	t.Run("healthy", func(t *testing.T) {
		reg := obs.NewRegistry()
		on, _, _ := runTrieEquiv(t, trieChaosEngine(t, 100_000, reg, false), setup, Options{Workers: 4})
		off, _, _ := runTrieEquiv(t, referenceEngine(t, trieChaosEngine(t, 100_000, nil, false)), setup, Options{Workers: 4})
		if on != off {
			t.Errorf("trie CSV differs from fresh CSV:\non:\n%s\noff:\n%s", on, off)
		}
		if forks := reg.Counter("engine.trie_suffix_forks").Load(); forks == 0 {
			t.Error("trie run forked no suffixes from boundary snapshots — equivalence is vacuous")
		}
	})

	t.Run("resume holes", func(t *testing.T) {
		// The (duration, expNr) chain order must survive the holes and
		// the release frontier must still emit the rows in grid order.
		checkResumeHoles(t, setup)
	})

	t.Run("chaos", func(t *testing.T) {
		// The full failure-containment stack on top of chaining:
		// deterministic panics, hangs and NaN corruption, one retry,
		// unlimited failure budget.
		opts := Options{Workers: 4, Retries: 1, MaxFailures: -1}
		chaosOn := setup
		var muOn sync.Mutex
		chaosOn.Factory = chaosFactory(&muOn, map[int]int{})
		on, _, onFails := runTrieEquiv(t, trieChaosEngine(t, 100_000, nil, false), chaosOn, opts)

		chaosOff := setup
		var muOff sync.Mutex
		chaosOff.Factory = chaosFactory(&muOff, map[int]int{})
		off, _, offFails := runTrieEquiv(t, referenceEngine(t, trieChaosEngine(t, 100_000, nil, false)), chaosOff, opts)

		if on != off {
			t.Errorf("chaos trie CSV differs from fresh CSV:\non:\n%s\noff:\n%s", on, off)
		}
		compareQuarantine(t, onFails, offFails)
	})

	t.Run("healthy early-exit", func(t *testing.T) {
		on, _, _ := runTrieEquiv(t, trieChaosEngine(t, 100_000, nil, true), setup, Options{Workers: 4})
		off, _, _ := runTrieEquiv(t, referenceEngine(t, trieChaosEngine(t, 100_000, nil, true)), setup, Options{Workers: 4})
		if on != off {
			t.Errorf("early-exit trie CSV differs from fresh CSV:\non:\n%s\noff:\n%s", on, off)
		}
	})

	t.Run("chained panic poisons subtree only", func(t *testing.T) {
		// A purely time-keyed panic inside a chained suffix: the bombed
		// value chain quarantines its two longest durations (the trigger
		// lies 1.2 s into the attack window), the session heals, and
		// every sibling chain of the same group still produces rows
		// byte-identical to the fresh run.
		opts := Options{Workers: 4, Retries: 1, MaxFailures: -1}
		bombOn := setup
		bombOn.Factory = trieBombFactory()
		on, _, onFails := runTrieEquiv(t, trieChaosEngine(t, 100_000, nil, false), bombOn, opts)

		bombOff := setup
		bombOff.Factory = trieBombFactory()
		off, _, offFails := runTrieEquiv(t, referenceEngine(t, trieChaosEngine(t, 100_000, nil, false)), bombOff, opts)

		// 10 starts x 1 bombed value x 2 durations crossing the trigger.
		if len(onFails) != 20 {
			t.Errorf("trie run quarantined %d experiments, want 20", len(onFails))
		}
		for _, f := range onFails {
			if f.Class != "panic" || f.Attempts != 2 {
				t.Errorf("bombed experiment %d: class %q attempts %d, want panic/2", f.Nr, f.Class, f.Attempts)
			}
		}
		if on != off {
			t.Errorf("bombed trie CSV differs from fresh CSV:\non:\n%s\noff:\n%s", on, off)
		}
		compareQuarantine(t, onFails, offFails)
	})
}

// compareQuarantine checks the classification contract of two quarantine
// streams: same grid points, same failure class, same attempt count.
// Stack traces legitimately differ between chained and fresh call paths.
func compareQuarantine(t *testing.T, on, off []core.ExperimentFailure) {
	t.Helper()
	if len(on) != len(off) {
		t.Fatalf("quarantine size: %d chained, %d fresh", len(on), len(off))
	}
	for i := range on {
		a, b := on[i], off[i]
		if a.Nr != b.Nr || a.Class != b.Class || a.Attempts != b.Attempts {
			t.Errorf("quarantine record %d differs: chained {Nr:%d Class:%q Attempts:%d}, fresh {Nr:%d Class:%q Attempts:%d}",
				i, a.Nr, a.Class, a.Attempts, b.Nr, b.Class, b.Attempts)
		}
	}
}

// renderCellReports renders the full per-cell classification report — the
// analysis artefact early exit promises to preserve bit-for-bit.
func renderCellReports(t *testing.T, exps []core.ExperimentResult) string {
	t.Helper()
	var b bytes.Buffer
	for _, fam := range analysis.CellFamilies(analysis.GroupCells(exps)) {
		if err := analysis.WriteCellReport(&b, fam); err != nil {
			t.Fatalf("WriteCellReport: %v", err)
		}
	}
	return b.String()
}

// TestTrieEarlyExitClassificationEquivalence pins the early-exit
// contract: truncating an experiment once its verdict is decided may
// change the raw kinematic summaries (DESIGN.md §10) but must not change
// a single classification — per-experiment outcome and collider match a
// full-horizon run exactly, and the rendered per-cell report is
// byte-identical, both on a healthy grid and under the chaos schedule.
func TestTrieEarlyExitClassificationEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple 200-experiment campaigns in -short mode")
	}
	setup := chaosGrid()

	compare := func(t *testing.T, ee, full []core.ExperimentResult) {
		t.Helper()
		if len(ee) != len(full) {
			t.Fatalf("result count: %d early-exit, %d full", len(ee), len(full))
		}
		for i := range ee {
			a, b := ee[i], full[i]
			if a.Spec.Nr != b.Spec.Nr || a.Outcome != b.Outcome || a.Collider != b.Collider {
				t.Errorf("experiment %d: early-exit {Outcome:%v Collider:%q}, full {Nr:%d Outcome:%v Collider:%q}",
					a.Spec.Nr, a.Outcome, a.Collider, b.Spec.Nr, b.Outcome, b.Collider)
			}
		}
		if eeRep, fullRep := renderCellReports(t, ee), renderCellReports(t, full); eeRep != fullRep {
			t.Errorf("classification report differs:\nearly-exit:\n%s\nfull:\n%s", eeRep, fullRep)
		}
	}

	t.Run("healthy", func(t *testing.T) {
		reg := obs.NewRegistry()
		_, ee, _ := runTrieEquiv(t, trieChaosEngine(t, 100_000, reg, true), setup, Options{Workers: 4})
		_, full, _ := runTrieEquiv(t, trieChaosEngine(t, 100_000, nil, false), setup, Options{Workers: 4})
		compare(t, ee, full)
		if exits := reg.Counter("engine.early_exits").Load(); exits == 0 {
			t.Error("no experiment exited early — classification equivalence is vacuous")
		}
	})

	t.Run("chaos", func(t *testing.T) {
		opts := Options{Workers: 4, Retries: 1, MaxFailures: -1}
		chaosEE := setup
		var muEE sync.Mutex
		chaosEE.Factory = chaosFactory(&muEE, map[int]int{})
		_, ee, eeFails := runTrieEquiv(t, trieChaosEngine(t, 100_000, nil, true), chaosEE, opts)

		chaosFull := setup
		var muFull sync.Mutex
		chaosFull.Factory = chaosFactory(&muFull, map[int]int{})
		_, full, fullFails := runTrieEquiv(t, trieChaosEngine(t, 100_000, nil, false), chaosFull, opts)

		compare(t, ee, full)
		compareQuarantine(t, eeFails, fullFails)
	})
}

// TestOrderGroupChainsTotalOrder pins the chain ordering contract: one
// bucket per attack value in first-appearance order, each sorted by
// (duration, expNr) — a total order, so equal durations break the tie on
// the experiment number, and any subset of the grid (a range, a resume
// hole) derives chain orders that are projections of the full grid's.
func TestOrderGroupChainsTotalOrder(t *testing.T) {
	setup := chaosGrid()
	setup.Values = []float64{0.2, 0.4}
	// A duplicated duration forces the expNr tie-break.
	setup.Durations = []des.Time{des.Second, des.Second, 500 * des.Millisecond}
	setup.Starts = setup.Starts[:1]
	specs := setup.Experiments()
	group := make([]int, len(specs))
	for i := range group {
		group[i] = i
	}

	chains := orderGroupChains(specs, group)
	// Grid order per value is Nr 0,1 (1 s), 2 (0.5 s) — sorted by
	// (duration, expNr) the 0.5 s run leads and the equal 1 s runs keep
	// expNr order.
	want := [][]int{{2, 0, 1}, {5, 3, 4}}
	if len(chains) != len(want) {
		t.Fatalf("chains = %v, want %v", chains, want)
	}
	for b := range want {
		if len(chains[b]) != len(want[b]) {
			t.Fatalf("chain %d = %v, want %v", b, chains[b], want[b])
		}
		for i := range want[b] {
			if chains[b][i] != want[b][i] {
				t.Fatalf("chain %d = %v, want %v", b, chains[b], want[b])
			}
		}
	}

	// Any subset must order as the full grid's projection: drop two
	// experiments and check the surviving relative order is unchanged.
	subset := []int{0, 1, 4, 5} // drop Nr 2 and 3
	subChains := orderGroupChains(specs, subset)
	wantSub := [][]int{{0, 1}, {5, 4}}
	for b := range wantSub {
		if len(subChains[b]) != len(wantSub[b]) {
			t.Fatalf("subset chain %d = %v, want %v", b, subChains[b], wantSub[b])
		}
		for i := range wantSub[b] {
			if subChains[b][i] != wantSub[b][i] {
				t.Fatalf("subset chain %d = %v, want %v", b, subChains[b], wantSub[b])
			}
		}
	}
}
