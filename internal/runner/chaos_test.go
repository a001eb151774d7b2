package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comfase/internal/core"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
)

// chaosEngine is a 5 s paper scenario with the full failure-containment
// configuration: runtime invariants on and an event budget well above a
// healthy run (~10k events at this horizon) but far below a runaway
// event loop.
func chaosEngine(t *testing.T, budget uint64) *core.Engine {
	t.Helper()
	ts := scenario.PaperScenario()
	ts.TotalSimTime = 5 * des.Second
	eng, err := core.NewEngine(core.EngineConfig{
		Scenario:          ts,
		Comm:              scenario.PaperCommModel(),
		Seed:              1,
		CancelCheckEvents: 256,
		Invariants:        true,
		EventBudget:       budget,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng
}

// chaosGrid is a 200-point delay grid inside the 5 s horizon
// (10 starts x 5 values x 4 durations).
func chaosGrid() core.CampaignSetup {
	setup := core.CampaignSetup{
		AttackName: "delay",
		Targets:    []string{"vehicle.2"},
		Values:     []float64{0.2, 0.4, 0.6, 0.8, 1.0},
		Durations:  []des.Time{500 * des.Millisecond, des.Second, 1500 * des.Millisecond, 2 * des.Second},
	}
	for s := 0; s < 10; s++ {
		setup.Starts = append(setup.Starts, des.Second+des.Time(s)*200*des.Millisecond)
	}
	return setup
}

// chaosClass is the deterministic fault schedule of the chaos self-test,
// keyed by expNr. First match wins, so the classes never overlap:
//
//	transient    — panics on the first attempt, healthy on the retry
//	panic        — panics on every attempt
//	event-budget — installs a runaway same-time event loop (a hang,
//	               caught by the kernel event budget)
//	invariant    — corrupts a vehicle state to NaN (caught by the
//	               runtime invariant checks)
func chaosClass(nr int) (class string, transient bool) {
	switch {
	case nr%17 == 3:
		return "", true
	case nr%29 == 5:
		return "panic", false
	case nr%31 == 7:
		return "event-budget", false
	case nr%37 == 11:
		return "invariant", false
	}
	return "", false
}

// hangModel schedules an event that reschedules itself at the current
// simulation time forever: simulated time never advances and the run
// only ends when a watchdog trips.
type hangModel struct{}

func (hangModel) Name() string      { return "chaos-hang" }
func (hangModel) Targets() []string { return []string{"vehicle.2"} }
func (hangModel) Install(sim *scenario.Simulation) error {
	k := sim.Kernel
	var loop func()
	loop = func() { k.ScheduleAfter(0, loop) }
	k.ScheduleAfter(0, loop)
	return nil
}
func (hangModel) Uninstall(*scenario.Simulation) error { return nil }

// nanModel corrupts the target vehicle's speed to NaN at install time —
// the kind of silent numeric corruption the invariant checks exist for.
type nanModel struct{}

func (nanModel) Name() string      { return "chaos-nan" }
func (nanModel) Targets() []string { return []string{"vehicle.2"} }
func (nanModel) Install(sim *scenario.Simulation) error {
	sim.Members[1].Vehicle().State.Speed = math.NaN()
	return nil
}
func (nanModel) Uninstall(*scenario.Simulation) error { return nil }

// chaosFactory injects the fault schedule. attempts counts factory calls
// per expNr (the factory runs inside the engine's panic boundary, under
// concurrent workers).
func chaosFactory(mu *sync.Mutex, attempts map[int]int) core.ModelFactory {
	return func(spec core.ExperimentSpec, horizon des.Time, seed uint64) (core.AttackModel, error) {
		mu.Lock()
		attempts[spec.Nr]++
		n := attempts[spec.Nr]
		mu.Unlock()
		class, transient := chaosClass(spec.Nr)
		if transient && n == 1 {
			panic(fmt.Sprintf("chaos transient #%d", spec.Nr))
		}
		switch class {
		case "panic":
			panic(fmt.Sprintf("chaos persistent #%d", spec.Nr))
		case "event-budget":
			return hangModel{}, nil
		case "invariant":
			return nanModel{}, nil
		}
		return core.NewDelayAttack(des.FromSeconds(spec.Value), spec.Targets...)
	}
}

// TestChaosCampaign is the end-to-end proof of the failure-containment
// layer: a 200-experiment campaign with deterministically scheduled
// panics, hangs and NaN corruption completes, quarantines every
// persistent failure with the correct class, retries the transient ones,
// and emits byte-identical CSV rows for the healthy experiments compared
// to an uninjected run of the same grid.
func TestChaosCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("two 200-experiment campaigns in -short mode")
	}
	setup := chaosGrid()
	total := setup.NumExperiments()
	if total != 200 {
		t.Fatalf("grid size = %d, want 200", total)
	}
	wantClass := map[int]string{} // persistent failures by expNr
	transientNrs := map[int]bool{}
	for nr := 0; nr < total; nr++ {
		class, transient := chaosClass(nr)
		if transient {
			transientNrs[nr] = true
		} else if class != "" {
			wantClass[nr] = class
		}
	}

	// Reference: the same grid, no fault injection.
	var refCSV bytes.Buffer
	refRunner, err := New(chaosEngine(t, 100_000), Options{Workers: 4}, NewCSVSink(&refCSV))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	refRes, err := refRunner.Run(context.Background(), setup)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(refRes.Experiments) != total || refRes.FailureCounts.Total() != 0 {
		t.Fatalf("reference: %d experiments, %d failures", len(refRes.Experiments), refRes.FailureCounts.Total())
	}

	// Chaos: same grid with the fault schedule layered on top.
	chaos := setup
	var mu sync.Mutex
	attempts := map[int]int{}
	chaos.Factory = chaosFactory(&mu, attempts)
	var gotCSV bytes.Buffer
	quarantine := &MemoryFailureSink{}
	var jsonl bytes.Buffer
	jsonlSink := NewQuarantineSink(&jsonl)
	r, err := New(chaosEngine(t, 100_000), Options{
		Workers:     4,
		Retries:     1,
		MaxFailures: -1,
		Quarantine:  teeFailureSink{quarantine, jsonlSink},
	}, NewCSVSink(&gotCSV))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := r.Run(context.Background(), chaos)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}

	// Every persistent failure is quarantined with the right class and
	// exhausted both attempts; nothing healthy is quarantined.
	if len(res.Failures) != len(wantClass) {
		t.Fatalf("failures = %d, want %d", len(res.Failures), len(wantClass))
	}
	for _, f := range res.Failures {
		want, ok := wantClass[f.Nr]
		if !ok {
			t.Errorf("experiment %d quarantined unexpectedly: %+v", f.Nr, f)
			continue
		}
		if f.Class != want {
			t.Errorf("experiment %d class = %q, want %q", f.Nr, f.Class, want)
		}
		if f.Attempts != 2 {
			t.Errorf("experiment %d attempts = %d, want 2", f.Nr, f.Attempts)
		}
		if f.Class == "panic" && !strings.Contains(f.Stack, "chaosFactory") {
			t.Errorf("experiment %d panic record has no useful stack", f.Nr)
		}
	}
	if res.FailureCounts.Total() != len(wantClass) {
		t.Errorf("failure counts = %+v", res.FailureCounts)
	}

	// The quarantine sink received the records in grid (expNr) order,
	// and the JSONL encoding round-trips.
	if !sort.SliceIsSorted(quarantine.Failures, func(i, j int) bool {
		return quarantine.Failures[i].Nr < quarantine.Failures[j].Nr
	}) {
		t.Error("quarantine records not in grid order")
	}
	fromDisk, err := ReadQuarantine(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatalf("ReadQuarantine: %v", err)
	}
	if len(fromDisk) != len(wantClass) {
		t.Errorf("quarantine.jsonl has %d records, want %d", len(fromDisk), len(wantClass))
	}
	for nr, class := range wantClass {
		if fromDisk[nr].Class != class {
			t.Errorf("quarantine.jsonl expNr %d class = %q, want %q", nr, fromDisk[nr].Class, class)
		}
	}

	// Transient experiments were retried (factory called twice) and
	// produced results.
	for nr := range transientNrs {
		if attempts[nr] != 2 {
			t.Errorf("transient experiment %d saw %d attempts, want 2", nr, attempts[nr])
		}
	}
	if len(res.Experiments) != total-len(wantClass) {
		t.Fatalf("experiments = %d, want %d", len(res.Experiments), total-len(wantClass))
	}

	// Healthy rows — retried transients included — are byte-identical to
	// the uninjected run: the chaos CSV must equal the reference CSV
	// minus the quarantined expNrs.
	want := filterCSVRows(t, refCSV.String(), wantClass)
	if got := gotCSV.String(); got != want {
		t.Errorf("chaos CSV differs from filtered reference:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// teeFailureSink fans quarantine records out to several sinks.
type teeFailureSink []FailureSink

func (ts teeFailureSink) Put(f core.ExperimentFailure) error {
	for _, s := range ts {
		if err := s.Put(f); err != nil {
			return err
		}
	}
	return nil
}

func (ts teeFailureSink) Flush() error {
	for _, s := range ts {
		if err := s.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// filterCSVRows drops the rows whose expNr is quarantined.
func filterCSVRows(t *testing.T, csv string, drop map[int]string) string {
	t.Helper()
	lines := strings.SplitAfter(csv, "\n")
	var b strings.Builder
	for i, line := range lines {
		if i == 0 || strings.TrimSpace(line) == "" {
			b.WriteString(line)
			continue
		}
		nr, err := strconv.Atoi(line[:strings.IndexByte(line, ',')])
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if _, failed := drop[nr]; !failed {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestExperimentTimeoutClass drives the wall-clock watchdog: a hanging
// experiment with no event budget is cut off by ExperimentTimeout and
// quarantined as a "timeout" failure.
func TestExperimentTimeoutClass(t *testing.T) {
	setup := chaosGrid()
	setup.Values = setup.Values[:1]
	setup.Starts = setup.Starts[:1]
	setup.Durations = setup.Durations[:1]
	setup.Factory = func(core.ExperimentSpec, des.Time, uint64) (core.AttackModel, error) {
		return hangModel{}, nil
	}
	quarantine := &MemoryFailureSink{}
	r, err := New(chaosEngine(t, 0), Options{
		Workers:           1,
		MaxFailures:       -1,
		ExperimentTimeout: 100 * time.Millisecond,
		Quarantine:        quarantine,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := r.Run(context.Background(), setup)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(quarantine.Failures) != 1 || quarantine.Failures[0].Class != "timeout" {
		t.Fatalf("quarantine = %+v, want one timeout record", quarantine.Failures)
	}
	if res.FailureCounts.Timeout != 1 {
		t.Errorf("failure counts = %+v", res.FailureCounts)
	}
}

// TestFailureBudgetEdges pins the failure-budget policy at its edges
// with a grid whose experiments all fail (the model factory errors).
func TestFailureBudgetEdges(t *testing.T) {
	var started atomic.Int64 // experiments attempted by the current run
	grid := func() core.CampaignSetup {
		setup := chaosGrid()
		setup.Values = setup.Values[:2]
		setup.Starts = setup.Starts[:2]
		setup.Durations = setup.Durations[:1]
		setup.Factory = func(spec core.ExperimentSpec, _ des.Time, _ uint64) (core.AttackModel, error) {
			started.Add(1)
			return nil, fmt.Errorf("chaos: experiment %d is unbuildable", spec.Nr)
		}
		return setup // 4 experiments, all destined to fail
	}
	run := func(t *testing.T, maxFailures int) (*core.CampaignResult, *MemoryFailureSink, error) {
		t.Helper()
		started.Store(0)
		quarantine := &MemoryFailureSink{}
		r, err := New(chaosEngine(t, 0), Options{
			Workers:     1,
			MaxFailures: maxFailures,
			Quarantine:  quarantine,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := r.Run(context.Background(), grid())
		return res, quarantine, err
	}

	t.Run("budget 0 fails fast", func(t *testing.T) {
		_, quarantine, err := run(t, 0)
		if !errors.Is(err, ErrFailureBudget) {
			t.Fatalf("err = %v, want ErrFailureBudget", err)
		}
		// The triggering failure still reaches the quarantine sink.
		if len(quarantine.Failures) != 1 || quarantine.Failures[0].Class != "error" {
			t.Errorf("quarantine = %+v, want the triggering record", quarantine.Failures)
		}
		// The first failure stops dispatch: nothing after it starts.
		if got := started.Load(); got != 1 {
			t.Errorf("%d experiments started, want 1", got)
		}
	})
	t.Run("budget = total completes", func(t *testing.T) {
		res, quarantine, err := run(t, 4)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(res.Failures) != 4 || len(res.Experiments) != 0 {
			t.Fatalf("failures = %d experiments = %d, want 4/0", len(res.Failures), len(res.Experiments))
		}
		if len(quarantine.Failures) != 4 || res.FailureCounts.Error != 4 {
			t.Errorf("quarantine = %d records, counts = %+v", len(quarantine.Failures), res.FailureCounts)
		}
	})
	t.Run("budget total-1 aborts on last", func(t *testing.T) {
		_, _, err := run(t, 3)
		if !errors.Is(err, ErrFailureBudget) {
			t.Fatalf("err = %v, want ErrFailureBudget", err)
		}
	})
	t.Run("unlimited budget completes", func(t *testing.T) {
		res, _, err := run(t, -1)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(res.Failures) != 4 {
			t.Fatalf("failures = %d, want 4", len(res.Failures))
		}
	})
}

// TestRetryRecoversTransientFailure pins the retry policy in isolation:
// one experiment that fails once and then succeeds must not be
// quarantined.
func TestRetryRecoversTransientFailure(t *testing.T) {
	setup := chaosGrid()
	setup.Values = setup.Values[:1]
	setup.Starts = setup.Starts[:1]
	setup.Durations = setup.Durations[:1]
	var mu sync.Mutex
	calls := 0
	setup.Factory = func(spec core.ExperimentSpec, _ des.Time, _ uint64) (core.AttackModel, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			return nil, errors.New("chaos: transient")
		}
		return core.NewDelayAttack(des.FromSeconds(spec.Value), spec.Targets...)
	}
	quarantine := &MemoryFailureSink{}
	r, err := New(chaosEngine(t, 0), Options{
		Workers:    1,
		Retries:    2,
		Quarantine: quarantine,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := r.Run(context.Background(), setup)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 2 {
		t.Errorf("factory called %d times, want 2", calls)
	}
	if len(res.Experiments) != 1 || len(quarantine.Failures) != 0 {
		t.Errorf("experiments = %d, quarantined = %d", len(res.Experiments), len(quarantine.Failures))
	}
}

// TestResumeFailuresSkipsQuarantined proves the quarantine file is
// resumable: a resumed run re-executes neither completed nor quarantined
// grid points.
func TestResumeFailuresSkipsQuarantined(t *testing.T) {
	setup := chaosGrid()
	setup.Values = setup.Values[:2]
	setup.Starts = setup.Starts[:2]
	setup.Durations = setup.Durations[:1] // 4 experiments
	failNr := 1
	factory := func(spec core.ExperimentSpec, _ des.Time, _ uint64) (core.AttackModel, error) {
		if spec.Nr == failNr {
			return nil, errors.New("chaos: permanently broken")
		}
		return core.NewDelayAttack(des.FromSeconds(spec.Value), spec.Targets...)
	}
	setup.Factory = factory

	var csvBuf, jsonl bytes.Buffer
	r, err := New(chaosEngine(t, 0), Options{
		Workers:     1,
		MaxFailures: -1,
		Quarantine:  NewQuarantineSink(&jsonl),
	}, NewCSVSink(&csvBuf))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := r.Run(context.Background(), setup); err != nil {
		t.Fatalf("first run: %v", err)
	}

	resume, err := ReadResults(bytes.NewReader(csvBuf.Bytes()))
	if err != nil {
		t.Fatalf("ReadResults: %v", err)
	}
	resumeFailures, err := ReadQuarantine(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatalf("ReadQuarantine: %v", err)
	}
	if len(resume) != 3 || len(resumeFailures) != 1 {
		t.Fatalf("resume inputs: %d results, %d failures", len(resume), len(resumeFailures))
	}

	setup.Factory = func(core.ExperimentSpec, des.Time, uint64) (core.AttackModel, error) {
		t.Error("resumed run re-executed a grid point")
		return nil, errors.New("unreachable")
	}
	var csv2, jsonl2 bytes.Buffer
	r2, err := New(chaosEngine(t, 0), Options{
		Workers:        1,
		MaxFailures:    0, // resumed failures must not count against the budget
		Resume:         resume,
		ResumeFailures: resumeFailures,
		Quarantine:     NewQuarantineSink(&jsonl2),
	}, NewResultsCSVSink(&csv2, false, false))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := r2.Run(context.Background(), setup)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if len(res.Experiments) != 3 || len(res.Failures) != 1 || res.Failures[0].Nr != failNr {
		t.Fatalf("resumed result: %d experiments, failures %+v", len(res.Experiments), res.Failures)
	}
	if csv2.Len() != 0 || jsonl2.Len() != 0 {
		t.Errorf("resumed run re-emitted rows (csv %d bytes, quarantine %d bytes)", csv2.Len(), jsonl2.Len())
	}
}
