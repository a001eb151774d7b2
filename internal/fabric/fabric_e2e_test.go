package fabric

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
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
	return sequentialReferenceFor(t, e2eConfig)
}

// sequentialReferenceFor runs an arbitrary campaign config sequentially —
// the byte-identity oracle for the multi-campaign drills.
func sequentialReferenceFor(t *testing.T, cfg string) (csvOut, quarantineOut []byte) {
	t.Helper()
	parsed, err := config.Parse(bytes.NewReader([]byte(cfg)))
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

	if st, _ := coord.CampaignStatusByID(files.ID); st.Merged != total {
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

// multiCampaignConfigs are three genuinely different grids for the
// multi-campaign drill: distinct sizes and attack parameters, so a
// cross-campaign merge bug cannot cancel out.
var multiCampaignConfigs = []string{
	e2eConfig,
	`{
  "scenario": {"totalSimTimeS": 6},
  "campaign": {
    "attack": "delay",
    "valuesS": {"values": [0.5, 1.5]},
    "startTimesS": {"values": [2]},
    "durationsS": {"values": [1, 2, 3]}
  }
}`,
	`{
  "scenario": {"totalSimTimeS": 6},
  "campaign": {
    "attack": "delay",
    "valuesS": {"values": [0.8]},
    "startTimesS": {"values": [1, 2]},
    "durationsS": {"values": [1, 2, 3, 4]}
  }
}`,
}

// TestFabricMultiCampaignChaosEquivalence is the multi-campaign failure
// drill: three campaigns submitted concurrently to ONE submit-mode
// service, three workers sharing the queue, one worker killed
// mid-campaign while holding a lease. Every campaign's merged CSV and
// quarantine must come out byte-identical to its own sequential run —
// the namespaced lease tables and per-campaign release frontiers must
// not leak a single row across campaigns, even through a crash.
func TestFabricMultiCampaignChaosEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second end-to-end campaign")
	}
	dir := t.TempDir()
	reg := obs.NewRegistry()
	svc, err := NewService(ServiceOptions{
		Dir:         dir,
		LeaseSize:   2,
		LeaseTTL:    400 * time.Millisecond,
		FairnessCap: 2,
		Metrics:     reg,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	waitCtx, stopService := context.WithCancel(ctx)
	defer stopService()
	svcErr := make(chan error, 1)
	go func() { svcErr <- svc.Wait(waitCtx) }()

	// Submit all three campaigns concurrently — the submit path must be
	// safe under contention and hand out distinct sequential IDs.
	var submitWG sync.WaitGroup
	ids := make([]string, len(multiCampaignConfigs))
	for i, cfg := range multiCampaignConfigs {
		submitWG.Add(1)
		go func(i int, cfg string) {
			defer submitWG.Done()
			resp, err := svc.Submit("drill-"+string(rune('a'+i)), []byte(cfg))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = resp.CampaignID
		}(i, cfg)
	}
	submitWG.Wait()
	if t.Failed() {
		t.FailNow()
	}
	seen := map[string]bool{}
	for i, id := range ids {
		if id == "" || seen[id] {
			t.Fatalf("submission %d got duplicate or empty ID %q (all: %v)", i, id, ids)
		}
		seen[id] = true
	}

	// The victim takes a lease and crashes holding it; the TTL sweeper
	// must return its range to the pool.
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
	if verr := victim.Run(ctx); !errors.Is(verr, errInjectedCrash) {
		t.Fatalf("victim died with %v, want the injected crash", verr)
	}

	// Three healthy workers drain the whole queue, building one executor
	// per campaign from the config shipped with its first grant.
	var wg sync.WaitGroup
	workerErrs := make([]error, 3)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := NewWorker(WorkerOptions{
				Coordinator: srv.URL,
				Workers:     2,
				MaxRetries:  8,
				RetryBase:   20 * time.Millisecond,
				Seed:        int64(200 + i),
				Metrics:     obs.NewRegistry(),
			})
			if err != nil {
				workerErrs[i] = err
				return
			}
			workerErrs[i] = w.Run(ctx)
		}(i)
	}

	// Submit mode never self-finishes: wait for every campaign to reach
	// done, then drain so the workers exit cleanly.
	for {
		states := svc.ListCampaigns()
		done := 0
		for _, st := range states {
			switch st.State {
			case StateDone:
				done++
			case StateFailed:
				t.Fatalf("campaign %s failed: %s", st.ID, st.Error)
			}
		}
		if done == len(multiCampaignConfigs) {
			break
		}
		if err := ctx.Err(); err != nil {
			t.Fatalf("campaigns stuck: %+v (%v)", states, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	stopService()
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	if err := <-svcErr; err != nil {
		t.Fatalf("service: %v", err)
	}

	// Byte-identity, campaign by campaign, on the durable files AND the
	// results-endpoint snapshot.
	for i, cfg := range multiCampaignConfigs {
		wantCSV, wantQ := sequentialReferenceFor(t, cfg)
		files := runner.CampaignFilesIn(dir, ids[i])
		gotCSV, err := os.ReadFile(files.Results)
		if err != nil {
			t.Fatalf("campaign %s results: %v", ids[i], err)
		}
		if !bytes.Equal(gotCSV, wantCSV) {
			t.Errorf("campaign %s CSV differs from its sequential run:\nfabric:\n%s\nsequential:\n%s", ids[i], gotCSV, wantCSV)
		}
		gotQ, err := os.ReadFile(files.Quarantine)
		if err != nil {
			t.Fatalf("campaign %s quarantine: %v", ids[i], err)
		}
		if !bytes.Equal(gotQ, wantQ) {
			t.Errorf("campaign %s quarantine differs:\nfabric: %q\nsequential: %q", ids[i], gotQ, wantQ)
		}
		snap, ok := svc.Results(ids[i])
		if !ok || snap.State != StateDone {
			t.Fatalf("campaign %s snapshot missing or not done: %+v", ids[i], snap)
		}
		if snap.CSV != string(wantCSV) {
			t.Errorf("campaign %s snapshot CSV diverges from the sequential run", ids[i])
		}
	}

	msnap := reg.Snapshot()
	if msnap.Counters["fabric.leases_expired"] == 0 {
		t.Errorf("no lease expired — the victim's death went undetected: %v", msnap.Counters)
	}
	if msnap.Counters["fabric.campaigns_submitted"] != 3 || msnap.Counters["fabric.campaigns_finished"] != 3 {
		t.Errorf("campaign counters = submitted %d finished %d, want 3/3",
			msnap.Counters["fabric.campaigns_submitted"], msnap.Counters["fabric.campaigns_finished"])
	}
	if msnap.Counters["fabric.workers_registered"] != 4 {
		t.Errorf("workers_registered = %d, want 4", msnap.Counters["fabric.workers_registered"])
	}
}
