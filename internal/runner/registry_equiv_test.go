package runner

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"comfase/internal/core"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
	"comfase/internal/sim/rng"
)

// registryGrid is a small grid inside the 5 s chaos horizon. value/dur
// vectors are chosen per family so every point is meaningful (e.g.
// packet-loss probabilities stay in [0,1]).
func registryGrid(values []float64) core.CampaignSetup {
	return core.CampaignSetup{
		Targets:   []string{"vehicle.2"},
		Values:    values,
		Starts:    []des.Time{des.Second, 2 * des.Second, 3 * des.Second},
		Durations: []des.Time{500 * des.Millisecond, 1500 * des.Millisecond},
	}
}

// legacyFactory replicates the pre-registry buildModel switch for the
// families the equivalence test sweeps — the reference the registry
// path must match bit-for-bit.
func legacyFactory(kind core.AttackKind) core.ModelFactory {
	return func(spec core.ExperimentSpec, horizon des.Time, seed uint64) (core.AttackModel, error) {
		switch kind {
		case core.AttackDelay:
			return core.NewDelayAttack(des.FromSeconds(spec.Value), spec.Targets...)
		case core.AttackDoS:
			return core.NewDoSAttack(horizon, spec.Targets...)
		case core.AttackPacketLoss:
			stream := rng.New(seed, fmt.Sprintf("attack.loss.%d", spec.Nr))
			return core.NewPacketLossAttack(spec.Value, stream, spec.Targets...)
		case core.AttackReplay:
			return core.NewReplayAttack(des.FromSeconds(spec.Value), spec.Targets...)
		}
		return nil, fmt.Errorf("legacyFactory: unhandled kind %v", kind)
	}
}

// TestRegistryCampaignEquivalence is the refactor's self-test: the
// registry attack path (by enum kind and by family name) must reproduce
// the legacy hardcoded-switch behaviour bit-for-bit. For each family it
// runs the same grid three ways — enum kind, registry name, and a
// factory replicating the old switch — and requires byte-identical
// result CSVs.
func TestRegistryCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns in -short mode")
	}
	families := []struct {
		name   string
		kind   core.AttackKind
		values []float64
	}{
		{"delay", core.AttackDelay, []float64{0.3, 1.0}},
		{"dos", core.AttackDoS, []float64{5}},
		{"packet-loss", core.AttackPacketLoss, []float64{0.5, 0.9}},
		{"replay", core.AttackReplay, []float64{0.5, 1.5}},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			run := func(mutate func(*core.CampaignSetup)) []byte {
				setup := registryGrid(fam.values)
				mutate(&setup)
				var buf bytes.Buffer
				r, err := New(chaosEngine(t, 0), Options{Workers: 2}, NewCSVSink(&buf))
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				if _, err := r.Run(context.Background(), setup); err != nil {
					t.Fatalf("Run: %v", err)
				}
				return buf.Bytes()
			}
			kindCSV := run(func(s *core.CampaignSetup) { s.Attack = fam.kind })
			nameCSV := run(func(s *core.CampaignSetup) { s.AttackName = fam.name })
			factoryCSV := run(func(s *core.CampaignSetup) {
				s.Factory = legacyFactory(fam.kind)
				s.AttackName = fam.name // label parity with the registry paths
			})
			if !bytes.Equal(kindCSV, nameCSV) {
				t.Errorf("registry name path differs from enum path:\nkind:\n%s\nname:\n%s", kindCSV, nameCSV)
			}
			if !bytes.Equal(kindCSV, factoryCSV) {
				t.Errorf("registry path differs from legacy factory:\nkind:\n%s\nfactory:\n%s", kindCSV, factoryCSV)
			}
		})
	}
}

// chaosAttackOnce registers the test-only "chaos-delay" family exactly
// once per process: a delay attack whose Build consults the chaos
// schedule by expNr, panicking or returning hang/NaN models like the
// chaos factory does.
var chaosAttackOnce sync.Once

func registerChaosAttack() {
	chaosAttackOnce.Do(func() {
		core.RegisterAttack(core.AttackEntry{
			Name: "chaos-delay",
			Desc: "test-only delay attack with a deterministic fault schedule",
			Build: func(ctx core.AttackContext) (core.AttackModel, error) {
				chaosAttackMu.Lock()
				chaosAttackAttempts[ctx.Spec.Nr]++
				n := chaosAttackAttempts[ctx.Spec.Nr]
				chaosAttackMu.Unlock()
				class, transient := chaosClass(ctx.Spec.Nr)
				if transient && n == 1 {
					panic(fmt.Sprintf("chaos transient #%d", ctx.Spec.Nr))
				}
				switch class {
				case "panic":
					panic(fmt.Sprintf("chaos persistent #%d", ctx.Spec.Nr))
				case "event-budget":
					return hangModel{}, nil
				case "invariant":
					return nanModel{}, nil
				}
				return core.NewDelayAttack(des.FromSeconds(ctx.Spec.Value), ctx.Spec.Targets...)
			},
		})
	})
}

// chaosAttackState backs the registered chaos-delay family. The
// registry is process-global, so the schedule state must outlive any
// single test run; tests reset the map under the lock.
var (
	chaosAttackMu       sync.Mutex
	chaosAttackAttempts = map[int]int{}
)

// TestRegistryChaosEquivalence runs the chaos fault schedule through a
// registered attack family and through the legacy chaos factory, and
// requires identical quarantine classes and byte-identical CSVs for the
// healthy experiments — the registry path must not weaken the
// failure-containment layer.
func TestRegistryChaosEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 200-experiment chaos campaign in -short mode")
	}
	registerChaosAttack()

	run := func(mutate func(*core.CampaignSetup)) ([]byte, map[int]string) {
		setup := chaosGrid()
		mutate(&setup)
		var buf bytes.Buffer
		r, err := New(chaosEngine(t, 200_000), Options{
			Workers:     4,
			Retries:     1,
			MaxFailures: -1,
		}, NewCSVSink(&buf))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := r.Run(context.Background(), setup)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		classes := make(map[int]string)
		for _, f := range res.Failures {
			classes[f.Nr] = f.Class
		}
		return buf.Bytes(), classes
	}

	chaosAttackMu.Lock()
	clear(chaosAttackAttempts)
	chaosAttackMu.Unlock()
	regCSV, regClasses := run(func(s *core.CampaignSetup) {
		s.Attack = 0 // chaosGrid pre-sets the delay kind; resolve by name alone
		s.AttackName = "chaos-delay"
	})

	var mu sync.Mutex
	attempts := map[int]int{}
	facCSV, facClasses := run(func(s *core.CampaignSetup) {
		s.Attack = 0
		s.AttackName = "chaos-delay" // label parity; Factory wins in buildModel
		s.Factory = chaosFactory(&mu, attempts)
	})

	if !bytes.Equal(regCSV, facCSV) {
		t.Errorf("healthy-row CSVs differ:\nregistry:\n%s\nfactory:\n%s", regCSV, facCSV)
	}
	if len(regClasses) == 0 {
		t.Fatal("chaos schedule quarantined nothing; the test is vacuous")
	}
	if fmt.Sprint(sortedClasses(regClasses)) != fmt.Sprint(sortedClasses(facClasses)) {
		t.Errorf("quarantine classes differ:\nregistry: %v\nfactory:  %v",
			sortedClasses(regClasses), sortedClasses(facClasses))
	}
}

func sortedClasses(m map[int]string) []string {
	nrs := make([]int, 0, len(m))
	for nr := range m {
		nrs = append(nrs, nr)
	}
	sort.Ints(nrs)
	out := make([]string, 0, len(nrs))
	for _, nr := range nrs {
		out = append(out, fmt.Sprintf("%d:%s", nr, m[nr]))
	}
	return out
}

// TestRunMatrixDeterminism is the matrix analogue of
// TestRunnerDeterminism: a sequential matrix run, a parallel one, and a
// sharded-then-merged pair must produce byte-identical matrix CSVs, and
// the per-cell tallies must agree with the flat experiment stream.
func TestRunMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs matrix campaigns in -short mode")
	}
	cells := testMatrixCells(t)

	runMatrix := func(opts Options) (*MatrixResult, []byte) {
		var buf bytes.Buffer
		res, err := RunMatrix(context.Background(), cells, opts, NewMatrixCSVSink(&buf))
		if err != nil {
			t.Fatalf("RunMatrix(%+v): %v", opts, err)
		}
		return res, buf.Bytes()
	}

	seq, seqCSV := runMatrix(Options{Workers: 1})
	_, parCSV := runMatrix(Options{Workers: 4})
	if !bytes.Equal(seqCSV, parCSV) {
		t.Errorf("parallel matrix CSV differs from sequential:\nseq:\n%s\npar:\n%s", seqCSV, parCSV)
	}

	var shardCSVs [][]byte
	for i := 1; i <= 2; i++ {
		_, csvBytes := runMatrix(Options{Workers: 2, Shard: Shard{Index: i, Count: 2}})
		shardCSVs = append(shardCSVs, csvBytes)
	}
	merged := mergeCSVBytes(t, shardCSVs...)
	if !bytes.Equal(seqCSV, merged) {
		t.Errorf("merged matrix shards differ from sequential:\nseq:\n%s\nmerged:\n%s", seqCSV, merged)
	}

	// Per-cell tallies must re-derive from the flat stream.
	total := 0
	for _, label := range seq.CellCounts.Labels() {
		total += seq.CellCounts.Get(label).Total()
	}
	if total != len(seq.Experiments) {
		t.Errorf("cell tallies cover %d experiments, want %d", total, len(seq.Experiments))
	}
	if got := len(seq.Cells); got != len(cells) {
		t.Errorf("got %d cell results, want %d", got, len(cells))
	}

	// The flat stream must be in global grid order with contiguous Nrs.
	for i, e := range seq.Experiments {
		if e.Spec.Nr != i {
			t.Fatalf("experiment %d has Nr %d; global grid order broken", i, e.Spec.Nr)
		}
	}
}

// testMatrixCells is a 2-scenario x 2-attack matrix on the 5 s chaos
// horizon. Both cells share the paper scenario engine config but carry
// distinct labels, so the engine-reuse path and the label plumbing are
// both exercised.
func testMatrixCells(t *testing.T) []MatrixCell {
	t.Helper()
	eng := chaosEngineConfig(0)
	grid := func(base int, scenarioLabel, attack string, kind core.AttackKind, values []float64) core.CampaignSetup {
		s := registryGrid(values)
		s.Attack = kind
		s.AttackName = attack
		s.Scenario = scenarioLabel
		s.Base = base
		return s
	}
	var cells []MatrixCell
	base := 0
	for _, sc := range []string{"cell-a", "cell-b"} {
		for _, at := range []struct {
			name   string
			kind   core.AttackKind
			values []float64
		}{
			{"delay", core.AttackDelay, []float64{0.3, 1.0}},
			{"packet-loss", core.AttackPacketLoss, []float64{0.5}},
		} {
			setup := grid(base, sc, at.name, at.kind, at.values)
			cells = append(cells, MatrixCell{Scenario: sc, Attack: at.name, Engine: eng, Setup: setup})
			base += setup.NumExperiments()
		}
	}
	return cells
}

// chaosEngineConfig is chaosEngine's config without the construction —
// RunMatrix builds engines itself.
func chaosEngineConfig(budget uint64) core.EngineConfig {
	ts := scenario.PaperScenario()
	ts.TotalSimTime = 5 * des.Second
	return core.EngineConfig{
		Scenario:          ts,
		Comm:              scenario.PaperCommModel(),
		Seed:              1,
		CancelCheckEvents: 256,
		Invariants:        true,
		EventBudget:       budget,
	}
}

func mergeCSVBytes(t *testing.T, csvs ...[]byte) []byte {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for i, b := range csvs {
		path := fmt.Sprintf("%s/shard%d.csv", dir, i)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatalf("write shard: %v", err)
		}
		paths = append(paths, path)
	}
	var merged bytes.Buffer
	if err := MergeResultFiles(&merged, paths...); err != nil {
		t.Fatalf("MergeResultFiles: %v", err)
	}
	return merged.Bytes()
}

// TestRunMatrixBaseValidation verifies the guards that run before any
// cell does: a gap in the global expNr space is a configuration bug, and
// an invalid campaign setup is rejected — naming its cell in a matrix,
// unwrapped for a single campaign.
func TestRunMatrixBaseValidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cells func() []MatrixCell
		want  string
	}{
		{name: "non-contiguous base", want: "runner: matrix cell 1 (cell-a/packet-loss) has base", cells: func() []MatrixCell {
			cells := testMatrixCells(t)
			cells[1].Setup.Base += 5
			return cells
		}},
		{name: "invalid cell setup", want: "runner: matrix cell 2 (cell-b/delay): core: campaign needs attack values",
			cells: func() []MatrixCell {
				cells := testMatrixCells(t)
				cells[2].Setup.Values = nil
				return cells
			}},
		{name: "invalid single campaign", want: "core: unknown attack kind", cells: func() []MatrixCell {
			return []MatrixCell{{Engine: chaosEngineConfig(0)}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunMatrix(context.Background(), tc.cells(), Options{Workers: 1})
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("RunMatrix error = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestRunMatrixResume verifies that resuming a partially completed
// matrix run skips the recorded rows and reproduces the full CSV.
func TestRunMatrixResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs matrix campaigns in -short mode")
	}
	cells := testMatrixCells(t)
	var full bytes.Buffer
	if _, err := RunMatrix(context.Background(), cells, Options{Workers: 1}, NewMatrixCSVSink(&full)); err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}

	// Cut the file mid-grid (header + first 7 rows) and resume.
	lines := bytes.SplitAfter(full.Bytes(), []byte("\n"))
	prefix := bytes.Join(lines[:8], nil)
	done, err := ReadResults(bytes.NewReader(prefix))
	if err != nil {
		t.Fatalf("ReadResults: %v", err)
	}
	if len(done) != 7 {
		t.Fatalf("prefix parsed to %d rows, want 7", len(done))
	}
	var tail bytes.Buffer
	if _, err := RunMatrix(context.Background(), cells, Options{Workers: 1, Resume: done},
		NewResultsCSVSink(&tail, true, false)); err != nil {
		t.Fatalf("resumed RunMatrix: %v", err)
	}
	combined := append(append([]byte(nil), prefix...), tail.Bytes()...)
	if !bytes.Equal(combined, full.Bytes()) {
		t.Errorf("resumed matrix CSV differs:\nfull:\n%s\ncombined:\n%s", full.Bytes(), combined)
	}
}
