package fabric

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"comfase/internal/obs"
)

func TestWorkerBackoffBounds(t *testing.T) {
	w, err := NewWorker(WorkerOptions{
		Coordinator: "http://test",
		RetryBase:   100 * time.Millisecond,
		RetryMax:    2 * time.Second,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 12; attempt++ {
		// Exponential cap: attempt n's nominal delay is base * 2^(n-1),
		// never above RetryMax; jitter keeps it within [d/2, d].
		nominal := 100 * time.Millisecond << (attempt - 1)
		if nominal > 2*time.Second || nominal <= 0 {
			nominal = 2 * time.Second
		}
		for i := 0; i < 50; i++ {
			d := w.backoff(attempt)
			if d < nominal/2 || d > nominal {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", attempt, d, nominal/2, nominal)
			}
		}
	}
}

func TestWorkerPostRetriesTransient(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"granted":false,"chunk":0,"from":0,"to":0,"gen":0,"done":true,"draining":false}`))
	}))
	defer srv.Close()
	reg := obs.NewRegistry()
	w, err := NewWorker(WorkerOptions{
		Coordinator: srv.URL, MaxRetries: 5,
		RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
		Metrics: reg, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp LeaseResponse
	if err := w.post(context.Background(), PathLease, LeaseRequest{WorkerID: "w1"}, &resp); err != nil {
		t.Fatalf("post: %v", err)
	}
	if !resp.Done {
		t.Errorf("response not decoded: %+v", resp)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (2 failures + success)", got)
	}
	if got := reg.Snapshot().Counters["fabric.worker.coordinator_retries"]; got != 2 {
		t.Errorf("retry counter = %d, want 2", got)
	}
}

func TestWorkerPostPermanentOn4xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "fabric: protocol error", http.StatusBadRequest)
	}))
	defer srv.Close()
	w, err := NewWorker(WorkerOptions{
		Coordinator: srv.URL, MaxRetries: 5,
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp LeaseResponse
	err = w.post(context.Background(), PathLease, LeaseRequest{WorkerID: "w1"}, &resp)
	if err == nil {
		t.Fatal("4xx accepted")
	}
	if errors.Is(err, ErrCoordinatorUnreachable) {
		t.Fatalf("4xx reported as unreachable (was retried): %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1 (no retry on 4xx)", got)
	}
}

func TestWorkerPostExhaustsRetryBudget(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	w, err := NewWorker(WorkerOptions{
		Coordinator: srv.URL, MaxRetries: 3,
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp LeaseResponse
	err = w.post(context.Background(), PathLease, LeaseRequest{WorkerID: "w1"}, &resp)
	if !errors.Is(err, ErrCoordinatorUnreachable) {
		t.Fatalf("err = %v, want ErrCoordinatorUnreachable", err)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("server saw %d calls, want 4 (-max-coordinator-retries 3 = 1 + 3 retries)", got)
	}
}

func TestWorkerRunRejectsVersionSkew(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"version":99,"workerID":"w1","config":{},"base":0,"total":1,"leaseTTLMS":1000}`))
	}))
	defer srv.Close()
	w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "protocol v99, worker v4") {
		t.Fatalf("version skew not rejected: %v", err)
	}
}

// TestWorkerIdleLongPollNoBusyLoop: an idle worker facing a service
// whose only range is leased elsewhere parks on each lease request for
// the full bound, so it makes at most ceil(elapsed/bound)+1 lease calls —
// no sleep, and no busy loop either.
func TestWorkerIdleLongPollNoBusyLoop(t *testing.T) {
	clock := newFakeClock() // the outstanding lease never expires
	const ttl = 200 * time.Millisecond
	bound := ttl / 2
	svc, _ := idleCampaign(t, clock, ttl, nil)
	h := svc.Handler()
	lease(t, h, register(t, h))

	var leaseCalls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathLease {
			leaseCalls.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 550*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := w.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("idle worker Run = %v, want its context deadline", err)
	}
	elapsed := time.Since(start)
	limit := int32((elapsed+bound-1)/bound) + 1
	if got := leaseCalls.Load(); got < 1 || got > limit {
		t.Errorf("idle worker made %d lease calls in %v, want 1..%d (bound %v)", got, elapsed, limit, bound)
	}
}
