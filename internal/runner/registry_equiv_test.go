package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"comfase/internal/core"
	"comfase/internal/obs"
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
func legacyFactory(name string) core.ModelFactory {
	return func(spec core.ExperimentSpec, horizon des.Time, seed uint64) (core.AttackModel, error) {
		switch name {
		case "delay":
			return core.NewDelayAttack(des.FromSeconds(spec.Value), spec.Targets...)
		case "dos":
			return core.NewDoSAttack(horizon, spec.Targets...)
		case "packet-loss":
			stream := rng.New(seed, fmt.Sprintf("attack.loss.%d", spec.Nr))
			return core.NewPacketLossAttack(spec.Value, stream, spec.Targets...)
		case "replay":
			return core.NewReplayAttack(des.FromSeconds(spec.Value), spec.Targets...)
		}
		return nil, fmt.Errorf("legacyFactory: unhandled attack %q", name)
	}
}

// TestRegistryCampaignEquivalence is the refactor's self-test: the
// registry attack path must reproduce the legacy hardcoded-switch
// behaviour bit-for-bit. For each family it runs the same grid two ways —
// by registry name, and through a factory replicating the old switch —
// and requires byte-identical result CSVs.
func TestRegistryCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns in -short mode")
	}
	families := []struct {
		name   string
		values []float64
	}{
		{"delay", []float64{0.3, 1.0}},
		{"dos", []float64{5}},
		{"packet-loss", []float64{0.5, 0.9}},
		{"replay", []float64{0.5, 1.5}},
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
			nameCSV := run(func(s *core.CampaignSetup) { s.AttackName = fam.name })
			factoryCSV := run(func(s *core.CampaignSetup) {
				s.Factory = legacyFactory(fam.name)
				s.AttackName = fam.name // label parity with the registry path
			})
			if !bytes.Equal(nameCSV, factoryCSV) {
				t.Errorf("registry path differs from legacy factory:\nname:\n%s\nfactory:\n%s", nameCSV, factoryCSV)
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
		s.AttackName = "chaos-delay"
	})

	var mu sync.Mutex
	attempts := map[int]int{}
	facCSV, facClasses := run(func(s *core.CampaignSetup) {
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

// matrixOutput is what a matrix run writes: its results CSV and its
// quarantine JSON lines.
type matrixOutput struct{ csv, quarantine []byte }

// runMatrixOutput runs m once with a CSV sink (with or without header)
// and a quarantine sink.
func runMatrixOutput(m *Matrix, opts Options, header bool) (*MatrixResult, matrixOutput, error) {
	var csv, q bytes.Buffer
	opts.Quarantine = NewQuarantineSink(&q)
	res, err := m.Run(context.Background(), opts, NewResultsCSVSink(&csv, true, header))
	return res, matrixOutput{csv.Bytes(), q.Bytes()}, err
}

// TestRunMatrixDeterminism is the matrix analogue of
// TestRunnerDeterminism. Every way of scheduling the 2-scenario x
// 2-family matrix through its one work queue must write the 1-worker
// run's CSV and quarantine bytes: 2 and 3 workers; two ranges, each on
// its own Matrix; a resume from a file cut inside the second cell; the
// grid run range by range through one Matrix, as the fabric executor
// does, with ranges straddling cell and scenario boundaries; and a
// failure-budget abort inside the first cell. The per-cell tallies must
// agree with the flat experiment stream.
func TestRunMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs matrix campaigns in -short mode")
	}
	cells := testMatrixCells(t)
	mustRun := func(m *Matrix, opts Options, header bool) (*MatrixResult, matrixOutput) {
		t.Helper()
		res, out, err := runMatrixOutput(m, opts, header)
		if err != nil {
			t.Fatalf("Run(%+v): %v", opts, err)
		}
		return res, out
	}
	same := func(what string, got, want matrixOutput) {
		t.Helper()
		if !bytes.Equal(got.csv, want.csv) {
			t.Errorf("%s: matrix CSV differs from 1 worker:\nwant:\n%s\ngot:\n%s", what, want.csv, got.csv)
		}
		if !bytes.Equal(got.quarantine, want.quarantine) {
			t.Errorf("%s: quarantine differs from 1 worker:\nwant:\n%s\ngot:\n%s", what, want.quarantine, got.quarantine)
		}
	}

	seq, want := mustRun(&Matrix{Cells: cells}, Options{Workers: 1}, true)
	for _, w := range []int{2, 3} {
		_, got := mustRun(&Matrix{Cells: cells}, Options{Workers: w}, true)
		same(fmt.Sprintf("%d workers", w), got, want)
	}

	// Two ranges, each through its own Matrix (separate-process model),
	// the second's output appended after the first's; 13 cuts a
	// same-start group of cell 1.
	var split matrixOutput
	for i, rg := range []Range{{0, 13}, {13, 36}} {
		_, out := mustRun(&Matrix{Cells: cells}, Options{Workers: 2, Range: rg}, i == 0)
		split.csv = append(split.csv, out.csv...)
		split.quarantine = append(split.quarantine, out.quarantine...)
	}
	same("two ranges", split, want)

	// Cut the file inside the second cell (cell 0 holds rows 0-11) and
	// resume it on two workers.
	lines := bytes.SplitAfter(want.csv, []byte("\n"))
	prefix := bytes.Join(lines[:1+15], nil)
	done, err := ReadResults(bytes.NewReader(prefix))
	if err != nil {
		t.Fatalf("ReadResults: %v", err)
	}
	_, tail := mustRun(&Matrix{Cells: cells}, Options{Workers: 2, Resume: done}, false)
	same("resumed", matrixOutput{csv: append(append([]byte(nil), prefix...), tail.csv...)}, want)

	// Range by range through one Matrix: [7,16) straddles the cell 0/1
	// boundary at 12, [16,30) the scenario boundary at 18.
	m := &Matrix{Cells: cells}
	var ranged matrixOutput
	for i, rg := range []Range{{0, 7}, {7, 16}, {16, 30}, {30, 36}} {
		_, out := mustRun(m, Options{Workers: 2, Range: rg}, i == 0)
		ranged.csv = append(ranged.csv, out.csv...)
		ranged.quarantine = append(ranged.quarantine, out.quarantine...)
	}
	same("ranges", ranged, want)

	// Two failing grid points in the first cell's first group against a
	// budget of one: the abort lands inside cell 0 while later groups
	// are in flight on the other workers, and must write the same bytes
	// at every worker count.
	failing := append([]MatrixCell(nil), cells...)
	delay := legacyFactory("delay")
	failing[0].Setup.Factory = func(spec core.ExperimentSpec, horizon des.Time, seed uint64) (core.AttackModel, error) {
		if spec.Nr == 1 || spec.Nr == 2 {
			return nil, fmt.Errorf("injected failure #%d", spec.Nr)
		}
		return delay(spec, horizon, seed)
	}
	var abortWant matrixOutput
	var abortErr string
	for _, w := range []int{1, 2, 3} {
		_, out, err := runMatrixOutput(&Matrix{Cells: failing}, Options{Workers: w, MaxFailures: 1}, true)
		if !errors.Is(err, ErrFailureBudget) || !strings.Contains(err.Error(), "matrix cell 0 (cell-a/delay)") {
			t.Fatalf("%d workers: error = %v, want a cell 0 failure-budget abort", w, err)
		}
		if w == 1 {
			abortWant, abortErr = out, err.Error()
			if len(bytes.Split(bytes.TrimSpace(out.quarantine), []byte("\n"))) != 2 {
				t.Fatalf("abort quarantined:\n%s\nwant the 2 injected failures", out.quarantine)
			}
			continue
		}
		same(fmt.Sprintf("abort at %d workers", w), out, abortWant)
		if err.Error() != abortErr {
			t.Errorf("%d workers: abort error %q, want %q", w, err, abortErr)
		}
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

// TestRunMatrixOneQueue pins the single work queue: on two workers, a
// group of the second cell starts while the first cell's last group is
// still running. That group blocks until the second cell starts, which
// a per-cell barrier would never allow.
func TestRunMatrixOneQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("runs matrix campaigns in -short mode")
	}
	cells := append([]MatrixCell(nil), testMatrixCells(t)...)
	// Cell 0's groups start at 1, 2 and 3 s; grid points 8-11 are the last.
	started := make(chan struct{})
	var once sync.Once
	delay, loss := legacyFactory("delay"), legacyFactory("packet-loss")
	cells[0].Setup.Factory = func(spec core.ExperimentSpec, horizon des.Time, seed uint64) (core.AttackModel, error) {
		if spec.Nr >= 8 {
			select {
			case <-started:
			case <-time.After(20 * time.Second):
				return nil, errors.New("cell 1 did not start while cell 0's last group ran")
			}
		}
		return delay(spec, horizon, seed)
	}
	cells[1].Setup.Factory = func(spec core.ExperimentSpec, horizon des.Time, seed uint64) (core.AttackModel, error) {
		once.Do(func() { close(started) })
		return loss(spec, horizon, seed)
	}
	res, err := RunMatrix(context.Background(), cells, Options{Workers: 2})
	if err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}
	if n := len(res.Experiments); n != 36 {
		t.Fatalf("%d results, want 36", n)
	}
}

// TestRunMatrixEngineLifetime pins how long a run holds each scenario's
// engine: only while the scenario has groups queued or running. On one
// worker, the first scenario's engine is gone by the time the second
// scenario's first experiment starts; on two, at most one engine beyond
// the current scenario's is held. After the run only the last
// scenario's engine remains, and the next run reuses it instead of
// simulating its golden run again.
func TestRunMatrixEngineLifetime(t *testing.T) {
	if testing.Short() {
		t.Skip("runs matrix campaigns in -short mode")
	}
	for _, workers := range []int{1, 2} {
		cells := append([]MatrixCell(nil), testMatrixCells(t)...)
		reg := obs.NewRegistry()
		for i := range cells {
			cells[i].Engine.Metrics = reg
		}
		m := &Matrix{Cells: cells}
		live := func() (n int) {
			for _, s := range m.scenarios {
				s.mu.Lock()
				if s.eng != nil {
					n++
				}
				s.mu.Unlock()
			}
			return n
		}
		var mu sync.Mutex
		maxLive := 0
		delay := legacyFactory("delay")
		cells[2].Setup.Factory = func(spec core.ExperimentSpec, horizon des.Time, seed uint64) (core.AttackModel, error) {
			mu.Lock()
			maxLive = max(maxLive, live())
			mu.Unlock()
			return delay(spec, horizon, seed)
		}
		if _, err := m.Run(context.Background(), Options{Workers: workers}); err != nil {
			t.Fatalf("%d workers: Run: %v", workers, err)
		}
		if want := workers; maxLive > want {
			t.Errorf("%d workers: %d engines held during the second scenario, want at most %d", workers, maxLive, want)
		}
		if live() != 1 || m.scenarios[0].eng != nil {
			t.Errorf("%d workers: after the run %d engines held (first scenario's: %v), want only the last scenario's",
				workers, live(), m.scenarios[0].eng != nil)
		}
		goldens := reg.Counter("engine.golden_runs")
		if got := goldens.Load(); got != 2 {
			t.Errorf("%d workers: %d golden runs, want one per scenario", workers, got)
		}
		// A range inside the last scenario reuses its kept engine.
		if _, err := m.Run(context.Background(), Options{Workers: workers, Range: Range{From: 20, To: 30}}); err != nil {
			t.Fatalf("%d workers: ranged Run: %v", workers, err)
		}
		if got := goldens.Load(); got != 2 {
			t.Errorf("%d workers: ranged run in the kept scenario ran a golden run (%d total)", workers, got)
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
	grid := func(base int, scenarioLabel, attack string, values []float64) core.CampaignSetup {
		s := registryGrid(values)
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
			values []float64
		}{
			{"delay", []float64{0.3, 1.0}},
			{"packet-loss", []float64{0.5}},
		} {
			setup := grid(base, sc, at.name, at.values)
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
		{name: "invalid single campaign", want: "core: campaign names no attack", cells: func() []MatrixCell {
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
