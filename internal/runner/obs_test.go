package runner

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comfase/internal/core"
	"comfase/internal/obs"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
)

// obsEngine is chaosEngine with a metrics registry attached (nil reg
// reproduces chaosEngine exactly).
func obsEngine(t *testing.T, budget uint64, reg *obs.Registry) *core.Engine {
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
		Metrics:           reg,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng
}

// runWithMetrics executes setup with the full observability stack wired
// in (registry on engine and runner, live heartbeat to a temp file) when
// reg is non-nil, and with everything off when reg is nil. It returns the
// CSV bytes and the quarantined failures in grid order.
func runWithMetrics(t *testing.T, setup core.CampaignSetup, opts Options, reg *obs.Registry) (string, []core.ExperimentFailure) {
	t.Helper()
	quarantine := &MemoryFailureSink{}
	opts.Quarantine = quarantine
	opts.Metrics = reg
	if reg != nil {
		hb := obs.NewHeartbeat(filepath.Join(t.TempDir(), "heartbeat.json"), time.Millisecond, reg.Snapshot)
		if err := hb.Start(); err != nil {
			t.Fatalf("heartbeat start: %v", err)
		}
		defer func() {
			if err := hb.Stop(); err != nil {
				t.Errorf("heartbeat stop: %v", err)
			}
		}()
	}
	var csv bytes.Buffer
	r, err := New(obsEngine(t, 100_000, reg), opts, NewCSVSink(&csv))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := r.Run(context.Background(), setup); err != nil {
		t.Fatalf("Run (metrics=%v): %v", reg != nil, err)
	}
	return csv.String(), quarantine.Failures
}

// TestMetricsCampaignEquivalence is the zero-interference proof for the
// observability layer: the same grid executed with the full metrics stack
// (registry on engine and runner, heartbeat publishing every millisecond)
// and with metrics off entirely must emit byte-identical result CSVs and
// identical quarantine records — on a healthy grid and under the chaos
// fault schedule with retries in play. Observation must never perturb the
// experiment.
func TestMetricsCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple 200-experiment campaigns in -short mode")
	}
	setup := chaosGrid()

	t.Run("healthy", func(t *testing.T) {
		on, _ := runWithMetrics(t, setup, Options{Workers: 4}, obs.NewRegistry())
		off, _ := runWithMetrics(t, setup, Options{Workers: 4}, nil)
		if on != off {
			t.Errorf("metrics-on CSV differs from metrics-off CSV:\non:\n%s\noff:\n%s", on, off)
		}
	})

	t.Run("chaos", func(t *testing.T) {
		opts := Options{Workers: 4, Retries: 1, MaxFailures: -1}
		chaosOn := setup
		var muOn sync.Mutex
		chaosOn.Factory = chaosFactory(&muOn, map[int]int{})
		on, onFails := runWithMetrics(t, chaosOn, opts, obs.NewRegistry())

		chaosOff := setup
		var muOff sync.Mutex
		chaosOff.Factory = chaosFactory(&muOff, map[int]int{})
		off, offFails := runWithMetrics(t, chaosOff, opts, nil)

		if on != off {
			t.Errorf("chaos metrics-on CSV differs from metrics-off CSV:\non:\n%s\noff:\n%s", on, off)
		}
		if len(onFails) != len(offFails) {
			t.Fatalf("quarantine size: %d with metrics, %d without", len(onFails), len(offFails))
		}
		for i := range onFails {
			a, b := onFails[i], offFails[i]
			if a.Nr != b.Nr || a.Class != b.Class || a.Attempts != b.Attempts {
				t.Errorf("quarantine record %d differs: metrics {Nr:%d Class:%q Attempts:%d}, plain {Nr:%d Class:%q Attempts:%d}",
					i, a.Nr, a.Class, a.Attempts, b.Nr, b.Class, b.Attempts)
			}
		}
	})
}

// TestHeartbeatLiveCampaign polls the heartbeat file while a campaign
// executes: every observed snapshot must decode as valid JSON with a
// strictly increasing sequence number and monotonically non-decreasing
// counters, a mid-write truncation of the file must surface as a clean
// decode error (never garbage values), and the final snapshot must agree
// with the campaign's actual outcome.
func TestHeartbeatLiveCampaign(t *testing.T) {
	reg := obs.NewRegistry()
	eng := obsEngine(t, 100_000, reg)
	setup := core.CampaignSetup{
		AttackName: "delay",
		Targets:    []string{"vehicle.2"},
		Values:     []float64{0.2, 0.5},
		Starts:     []des.Time{des.Second, des.Second + 200*des.Millisecond, des.Second + 400*des.Millisecond},
		Durations:  []des.Time{300 * des.Millisecond, 600 * des.Millisecond},
	}
	total := setup.NumExperiments()

	path := filepath.Join(t.TempDir(), "heartbeat.json")
	hb := obs.NewHeartbeat(path, time.Millisecond, reg.Snapshot)
	if err := hb.Start(); err != nil {
		t.Fatalf("heartbeat start: %v", err)
	}

	// The poller races the campaign: it reads whatever is published and
	// verifies the monotonicity contract across everything it sees.
	stop := make(chan struct{})
	pollErr := make(chan error, 1)
	var decoded atomic.Int64
	go func() {
		defer close(pollErr)
		var lastSeq uint64
		last := map[string]uint64{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			data, err := os.ReadFile(path)
			if err != nil {
				pollErr <- err
				return
			}
			s, err := obs.DecodeSnapshot(data)
			if err != nil {
				// Rename-based publishing means a reader sees complete
				// documents only; any decode failure is a real bug.
				pollErr <- err
				return
			}
			if s.Seq <= lastSeq {
				continue // same document as the previous poll
			}
			lastSeq = s.Seq
			decoded.Add(1)
			for name, v := range s.Counters {
				if prev, ok := last[name]; ok && v < prev {
					pollErr <- errors.New("counter " + name + " decreased between snapshots")
					return
				}
				last[name] = v
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	r, err := New(eng, Options{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := r.Run(context.Background(), setup)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// A fast machine can finish the whole campaign inside one heartbeat
	// period; the writer keeps publishing until Stop, so wait for the
	// poller to observe several distinct snapshots before tearing down.
	deadline := time.Now().Add(5 * time.Second)
	for decoded.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if err, ok := <-pollErr; ok && err != nil {
		t.Fatalf("heartbeat poller: %v", err)
	}
	if err := hb.Stop(); err != nil {
		t.Fatalf("heartbeat stop: %v", err)
	}
	if n := decoded.Load(); n < 3 {
		t.Fatalf("poller decoded %d distinct snapshots, want >= 3", n)
	}

	// The file's final state is Stop's end-of-campaign snapshot and must
	// agree with the campaign result.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read final heartbeat: %v", err)
	}
	final, err := obs.DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode final heartbeat: %v", err)
	}
	if got := final.Counters["engine.experiments_completed"]; got != uint64(total) {
		t.Errorf("final engine.experiments_completed = %d, want %d", got, total)
	}
	if got := final.Counters["runner.results_emitted"]; got != uint64(len(res.Experiments)) {
		t.Errorf("final runner.results_emitted = %d, want %d", got, len(res.Experiments))
	}
	if got := final.Gauges["runner.grid_done"]; got != int64(total) {
		t.Errorf("final runner.grid_done = %d, want %d", got, total)
	}
	if got := final.Counters["kernel.events_executed"]; got == 0 {
		t.Error("final kernel.events_executed = 0, want > 0")
	}
	if final.Histograms["engine.experiment_wall_seconds"].Count != uint64(total) {
		t.Errorf("wall histogram count = %d, want %d",
			final.Histograms["engine.experiment_wall_seconds"].Count, total)
	}

	// Mid-write truncation: a tool that copies the file non-atomically can
	// see a prefix; any cut into the JSON document must fail decoding
	// cleanly. (len-1 only strips the trailing newline, so the deepest
	// structural cut is len-2: inside the closing brace.)
	for _, cut := range []int{1, len(data) / 2, len(data) - 2} {
		if _, err := obs.DecodeSnapshot(data[:cut]); !errors.Is(err, obs.ErrInvalidSnapshot) {
			t.Errorf("DecodeSnapshot(%d-byte truncation) = %v, want ErrInvalidSnapshot", cut, err)
		}
	}
}
