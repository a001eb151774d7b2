package fabric

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"comfase/internal/config"
	"comfase/internal/core"
	"comfase/internal/obs"
	"comfase/internal/runner"
)

// e2eConfig is the chaos campaign: a 12-point delay grid inside a 6 s
// horizon, small enough to execute in seconds but large enough (6 chunks
// at lease size 2) that killing a worker mid-campaign forces a re-lease.
const e2eConfig = `{
  "scenario": {"totalSimTimeS": 6},
  "campaign": {
    "attack": "delay",
    "valuesS": {"values": [0.3, 1.0, 2.0]},
    "startTimesS": {"values": [2]},
    "durationsS": {"values": [1, 2, 3, 4]}
  }
}`

// sequentialReference runs the chaos campaign in-process the ordinary
// way and returns the results CSV and quarantine bytes.
func sequentialReference(t *testing.T) (csvOut, quarantineOut []byte) {
	t.Helper()
	parsed, err := config.Parse(bytes.NewReader([]byte(e2eConfig)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(parsed.Engine)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf, qBuf bytes.Buffer
	r, err := runner.New(eng, runner.Options{
		Workers:     4,
		MaxFailures: -1,
		Quarantine:  runner.NewQuarantineSink(&qBuf),
	}, runner.NewCSVSink(&csvBuf))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), parsed.Campaign); err != nil {
		t.Fatal(err)
	}
	return csvBuf.Bytes(), qBuf.Bytes()
}

// crashingExecutor simulates a worker crash: the first Execute call dies
// after a short delay (holding its lease, never completing), so the
// coordinator must detect the death by TTL expiry and re-lease the range.
type crashingExecutor struct {
	delay time.Duration
}

var errInjectedCrash = errors.New("injected worker crash")

func (e *crashingExecutor) Execute(ctx context.Context, from, to int) ([]ResultRow, []FailureRow, error) {
	select {
	case <-time.After(e.delay):
	case <-ctx.Done():
	}
	return nil, nil, errInjectedCrash
}

// TestFabricChaosEquivalence is the end-to-end failure drill: a
// coordinator and three workers over real HTTP, one worker killed
// mid-campaign while holding a lease. The survivors must absorb the
// re-leased range and the merged CSV must be byte-identical to a
// sequential single-process run.
func TestFabricChaosEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second end-to-end campaign")
	}
	wantCSV, wantQuarantine := sequentialReference(t)

	parsed, err := config.Parse(bytes.NewReader([]byte(e2eConfig)))
	if err != nil {
		t.Fatal(err)
	}
	total := parsed.Campaign.NumExperiments()
	if total != 12 {
		t.Fatalf("e2e grid = %d points, want 12", total)
	}

	reg := obs.NewRegistry()
	unlimited := -1
	coord, files := singleCampaign(t, ServiceOptions{
		LeaseSize: 2,
		LeaseTTL:  400 * time.Millisecond,
		Metrics:   reg,
		Logf:      t.Logf,
	}, []byte(e2eConfig), t.TempDir(), false, &unlimited)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	coordErr := make(chan error, 1)
	go func() { coordErr <- coord.Wait(ctx) }()

	// The victim registers first and takes a lease, then "crashes": its
	// executor dies mid-range, the process never completes or renews, and
	// the lease must expire.
	victim, err := NewWorker(WorkerOptions{
		Coordinator: srv.URL,
		MaxRetries:  3,
		RetryBase:   10 * time.Millisecond,
		Seed:        7,
		NewExecutor: func([]byte) (Executor, error) {
			return &crashingExecutor{delay: 50 * time.Millisecond}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	victimErr := victim.Run(ctx)
	if !errors.Is(victimErr, errInjectedCrash) {
		t.Fatalf("victim died with %v, want the injected crash", victimErr)
	}

	// Two healthy workers finish the campaign, the re-leased range
	// included.
	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := NewWorker(WorkerOptions{
				Coordinator: srv.URL,
				Workers:     2,
				MaxRetries:  8,
				RetryBase:   20 * time.Millisecond,
				Seed:        int64(100 + i),
				Metrics:     obs.NewRegistry(),
			})
			if err != nil {
				workerErrs[i] = err
				return
			}
			workerErrs[i] = w.Run(ctx)
		}(i)
	}
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	if err := <-coordErr; err != nil {
		t.Fatalf("coordinator: %v", err)
	}

	if st := coord.Status(); st.Merged != total {
		t.Fatalf("merged %d/%d grid points", st.Merged, total)
	}
	csvBuf := bytes.NewBufferString(readString(t, files.Results))
	qBuf := bytes.NewBufferString(readString(t, files.Quarantine))
	if !bytes.Equal(csvBuf.Bytes(), wantCSV) {
		t.Errorf("merged CSV differs from the sequential run:\nfabric:\n%s\nsequential:\n%s", csvBuf.Bytes(), wantCSV)
	}
	if !bytes.Equal(qBuf.Bytes(), wantQuarantine) {
		t.Errorf("merged quarantine differs:\nfabric: %q\nsequential: %q", qBuf.Bytes(), wantQuarantine)
	}
	snap := reg.Snapshot()
	if snap.Counters["fabric.leases_expired"] == 0 {
		t.Errorf("no lease expired — the victim's death went undetected: %v", snap.Counters)
	}
	if snap.Counters["fabric.leases_released"] == 0 {
		t.Errorf("no range re-leased after the crash: %v", snap.Counters)
	}
	if snap.Counters["fabric.workers_registered"] != 3 {
		t.Errorf("workers_registered = %d, want 3", snap.Counters["fabric.workers_registered"])
	}
}

// TestFabricDistributedEquivalence is the happy-path drill: three healthy
// workers, no failures, byte-identical output — exercising the release
// frontier under genuinely concurrent out-of-order completions.
func TestFabricDistributedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second end-to-end campaign")
	}
	wantCSV, _ := sequentialReference(t)
	coord, files := singleCampaign(t, ServiceOptions{
		LeaseSize: 3,
		LeaseTTL:  2 * time.Second,
	}, []byte(e2eConfig), t.TempDir(), false, nil)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	coordErr := make(chan error, 1)
	go func() { coordErr <- coord.Wait(ctx) }()

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := NewWorker(WorkerOptions{
				Coordinator: srv.URL,
				Workers:     2,
				RetryBase:   20 * time.Millisecond,
				Seed:        int64(1 + i),
			})
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = w.Run(ctx)
		}(i)
	}
	wg.Wait()
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	if err := <-coordErr; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	csvBuf := bytes.NewBufferString(readString(t, files.Results))
	if !bytes.Equal(csvBuf.Bytes(), wantCSV) {
		t.Errorf("distributed CSV differs from sequential:\nfabric:\n%s\nsequential:\n%s", csvBuf.Bytes(), wantCSV)
	}
}
