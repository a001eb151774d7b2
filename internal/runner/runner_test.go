package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"comfase/internal/core"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
)

func newEngine(t *testing.T) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.EngineConfig{
		Scenario: scenario.PaperScenario(),
		Comm:     scenario.PaperCommModel(),
		Seed:     1,
		// A small poll granularity keeps cancellation latency tiny in
		// tests without measurably slowing the ~100k-event experiments.
		CancelCheckEvents: 512,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng
}

// testGrid is an 8-point grid spanning severe and benign regions.
func testGrid() core.CampaignSetup {
	return core.CampaignSetup{
		AttackName: "delay",
		Targets:    []string{"vehicle.2"},
		Values:     []float64{0.4, 2.0},
		Starts:     []des.Time{17 * des.Second, 19800 * des.Millisecond},
		Durations:  []des.Time{2 * des.Second, 10 * des.Second},
	}
}

func runToCSV(t *testing.T, opts Options, setup core.CampaignSetup) (*core.CampaignResult, []byte) {
	t.Helper()
	var buf bytes.Buffer
	r, err := New(newEngine(t), opts, NewCSVSink(&buf))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := r.Run(context.Background(), setup)
	if err != nil {
		t.Fatalf("Run(%+v): %v", opts, err)
	}
	return res, buf.Bytes()
}

// TestRunnerDeterminism is the end-to-end invariant check of the
// campaign runtime: sequential, parallel, and range-split runs of the
// same (config, seed) grid produce identical CampaignResults and
// byte-identical result CSVs.
func TestRunnerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("32 experiments in -short mode")
	}
	setup := testGrid()

	seq, seqCSV := runToCSV(t, Options{Workers: 1}, setup)
	par, parCSV := runToCSV(t, Options{Workers: 4}, setup)

	if !bytes.Equal(seqCSV, parCSV) {
		t.Errorf("parallel CSV differs from sequential:\nseq:\n%s\npar:\n%s", seqCSV, parCSV)
	}
	if seq.Counts != par.Counts {
		t.Errorf("counts differ: %v vs %v", seq.Counts, par.Counts)
	}
	if !reflect.DeepEqual(stripFactories(seq.Experiments), stripFactories(par.Experiments)) {
		t.Error("parallel experiments differ from sequential")
	}

	// Two ranges, each its own engine (separate-process model), the
	// second's rows appended after the first's.
	_, head := runToCSV(t, Options{Workers: 2, Range: Range{From: 0, To: 3}}, setup)
	_, tail := runToCSV(t, Options{Workers: 2, Range: Range{From: 3, To: 8}}, setup)
	split := append(head, tail[bytes.IndexByte(tail, '\n')+1:]...)
	if !bytes.Equal(seqCSV, split) {
		t.Errorf("range-split CSV differs from sequential:\nseq:\n%s\nsplit:\n%s", seqCSV, split)
	}
}

// stripFactories zeroes the non-comparable Factory fields so
// reflect.DeepEqual can compare result slices.
func stripFactories(exps []core.ExperimentResult) []core.ExperimentResult {
	out := append([]core.ExperimentResult(nil), exps...)
	for i := range out {
		out[i].Spec.Factory = nil
	}
	return out
}

// TestRunnerCancelFlushesPartialResults verifies the SIGINT story: a
// mid-campaign cancel aborts promptly, the CSV sink retains a parseable
// grid-order prefix, and a resumed run completes exactly the remaining
// grid points and reproduces the uninterrupted file byte-for-byte.
func TestRunnerCancelFlushesPartialResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments in -short mode")
	}
	setup := testGrid()
	_, wantCSV := runToCSV(t, Options{Workers: 1}, setup)

	// Interrupt after the second completion. One worker makes the cut
	// deterministic: completion order is grid order, so exactly rows 0-1
	// are released before the cancel lands (with two workers on a small
	// machine, one worker can finish points 1 and 2 before the other
	// finishes point 0, leaving an empty — and flaky — released prefix).
	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	r, err := New(newEngine(t), Options{
		Workers: 1,
		Progress: func(done, total int) {
			if done == 2 {
				cancel()
			}
		},
	}, NewCSVSink(&buf))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := r.Run(ctx, setup); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}

	completed, err := ReadResults(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadResults on partial file: %v", err)
	}
	if len(completed) == 0 || len(completed) >= setup.NumExperiments() {
		t.Fatalf("partial file has %d rows, want a strict non-empty subset of %d",
			len(completed), setup.NumExperiments())
	}
	// Grid-order release means the partial file is a byte prefix of the
	// sequential output.
	if !bytes.HasPrefix(wantCSV, buf.Bytes()) {
		t.Errorf("partial CSV is not a prefix of the sequential CSV:\npartial:\n%s", buf.Bytes())
	}

	// Resume: append to the partial buffer, count re-executions.
	var executed atomic.Int64
	resumeSetup := setup
	resumeSetup.Factory = func(spec core.ExperimentSpec, horizon des.Time, seed uint64) (core.AttackModel, error) {
		executed.Add(1)
		return core.NewDelayAttack(des.FromSeconds(spec.Value), spec.Targets...)
	}
	r2, err := New(newEngine(t), Options{Workers: 2, Resume: completed}, NewResultsCSVSink(&buf, false, false))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := r2.Run(context.Background(), resumeSetup)
	if err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	remaining := int64(setup.NumExperiments() - len(completed))
	if executed.Load() != remaining {
		t.Errorf("resume executed %d experiments, want exactly the %d remaining", executed.Load(), remaining)
	}
	if !bytes.Equal(buf.Bytes(), wantCSV) {
		t.Errorf("resumed CSV differs from uninterrupted run:\nwant:\n%s\ngot:\n%s", wantCSV, buf.Bytes())
	}
	if res.Counts.Total() != setup.NumExperiments() {
		t.Errorf("resumed result covers %d experiments, want %d", res.Counts.Total(), setup.NumExperiments())
	}
}

// TestRunnerProgressMonotonicWithResume checks done counts increase by
// one per completion under a parallel pool and end at the grid total:
// from 1 on a fresh run, and from the resumed offset on a resumed one.
func TestRunnerProgressMonotonicWithResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments in -short mode")
	}
	setup := testGrid()
	full, _ := runToCSV(t, Options{Workers: 1}, setup)
	for _, tc := range []struct {
		name   string
		resume map[int]core.ExperimentResult
		first  int // the first done count reported
	}{
		{name: "fresh", first: 1},
		// The initial resumed notification reports 2, then 6 completions.
		{name: "resume", first: 2, resume: map[int]core.ExperimentResult{
			full.Experiments[0].Spec.Nr: full.Experiments[0],
			full.Experiments[3].Spec.Nr: full.Experiments[3],
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var dones []int
			r, err := New(newEngine(t), Options{
				Workers: 4,
				Resume:  tc.resume,
				Progress: func(done, total int) {
					mu.Lock()
					dones = append(dones, done)
					mu.Unlock()
					if total != 8 {
						t.Errorf("total = %d, want 8", total)
					}
				},
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if _, err := r.Run(context.Background(), setup); err != nil {
				t.Fatalf("Run: %v", err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(dones) != 8-tc.first+1 {
				t.Fatalf("progress called %d times (%v), want %d", len(dones), dones, 8-tc.first+1)
			}
			for i, d := range dones {
				if d != tc.first+i {
					t.Fatalf("progress sequence %v, want %d..8", dones, tc.first)
				}
			}
		})
	}
}

func TestReadResultsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments in -short mode")
	}
	// More workers than grid points: the pool shrinks to the grid.
	res, csvBytes := runToCSV(t, Options{Workers: 4}, core.CampaignSetup{
		AttackName: "delay",
		Targets:    []string{"vehicle.2"},
		Values:     []float64{2.0},
		Starts:     []des.Time{18 * des.Second},
		Durations:  []des.Time{10 * des.Second},
	})
	completed, err := ReadResults(bytes.NewReader(csvBytes))
	if err != nil {
		t.Fatalf("ReadResults: %v", err)
	}
	want := res.Experiments[0]
	got, ok := completed[want.Spec.Nr]
	if !ok {
		t.Fatalf("expNr %d missing from %v", want.Spec.Nr, completed)
	}
	if got.Outcome != want.Outcome || got.Collider != want.Collider ||
		got.Spec.Attack != want.Spec.Attack || got.Spec.Start != want.Spec.Start ||
		got.Spec.Duration != want.Spec.Duration || got.Spec.Value != want.Spec.Value ||
		len(got.Collisions) != len(want.Collisions) {
		t.Errorf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestReadResultsRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"time_s,vehicle,pos_m\n1,2,3\n", // wrong schema
		"expNr,attack,value,start_s,duration_s,outcome,max_decel_mps2,max_speed_dev_mps,collisions,collider\nx,delay,1,1,1,severe,1,1,0,\n",
		"expNr,attack,value,start_s,duration_s,outcome,max_decel_mps2,max_speed_dev_mps,collisions,collider\n1,delay,1,1,1,spicy,1,1,0,\n",
		"expNr,attack,value,start_s,duration_s,outcome,max_decel_mps2,max_speed_dev_mps,collisions,collider\n" +
			"1,delay,1,1,1,severe,1,1,0,\n1,delay,1,1,1,severe,1,1,0,\n", // duplicate
	} {
		if _, err := ReadResults(strings.NewReader(in)); err == nil {
			t.Errorf("ReadResults accepted %q", in)
		}
	}
	got, err := ReadResults(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Errorf("empty input: got %v, %v; want empty map", got, err)
	}
}

func TestJSONAndMemorySinks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments in -short mode")
	}
	var jsonBuf bytes.Buffer
	mem := &MemorySink{}
	r, err := New(newEngine(t), Options{Workers: 1}, NewJSONSink(&jsonBuf), mem)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	setup := core.CampaignSetup{
		AttackName: "delay",
		Targets:    []string{"vehicle.2"},
		Values:     []float64{2.0},
		Starts:     []des.Time{18 * des.Second},
		Durations:  []des.Time{2 * des.Second, 10 * des.Second},
	}
	res, err := r.Run(context.Background(), setup)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if mem.Counts != res.Counts || len(mem.Experiments) != 2 {
		t.Errorf("memory sink: counts %v (want %v), %d experiments", mem.Counts, res.Counts, len(mem.Experiments))
	}
	lines := strings.Split(strings.TrimSpace(jsonBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("json sink wrote %d lines, want 2", len(lines))
	}
	for i, line := range lines {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
		if row["expNr"] != float64(i) || row["attack"] != "delay" {
			t.Errorf("line %d = %v", i, row)
		}
	}
}

// TestRunnerMatchesEngineCampaign ties the runner to the campaign oracle:
// same grid, same results as fresh experiments run one by one.
func TestRunnerMatchesEngineCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments in -short mode")
	}
	setup := testGrid()
	want := referenceCSV(t, newEngine(t), setup)
	_, runnerCSV := runToCSV(t, Options{Workers: 4}, setup)
	if !bytes.Equal(want, runnerCSV) {
		t.Errorf("runner CSV differs from the reference export:\nwant:\n%s\ngot:\n%s", want, runnerCSV)
	}
}
