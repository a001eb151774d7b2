package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"comfase/internal/obs"
)

// ErrCoordinatorUnreachable wraps a coordinator call that exhausted its
// retry budget — the worker's "give up" signal, distinct from ordinary
// execution errors.
var ErrCoordinatorUnreachable = errors.New("fabric: coordinator unreachable")

// errLeaseLost is the internal signal that the current lease was
// cancelled under us (expired and re-granted elsewhere); the worker
// abandons the range and asks for a new lease.
var errLeaseLost = errors.New("fabric: lease lost")

// WorkerOptions configure a fabric worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:7app".
	Coordinator string
	// Client is the HTTP client; nil uses a default with sane timeouts.
	Client *http.Client
	// Workers overrides the config-provided local pool size when > 0.
	Workers int
	// MaxRetries bounds consecutive failed attempts per coordinator call
	// (the -max-coordinator-retries budget). <= 0 uses the default.
	MaxRetries int
	// RetryBase/RetryMax bound the jittered exponential backoff between
	// attempts. Zero values use the defaults.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Metrics receives worker instrumentation; its snapshots double as
	// the heartbeat payload reported to the coordinator. May be nil.
	Metrics *obs.Registry
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// NewExecutor builds the range executor from the coordinator's config
	// JSON; nil uses the production campaign executor. Chaos tests swap in
	// crashing executors here.
	NewExecutor func(cfgJSON []byte) (Executor, error)
	// Seed seeds the backoff jitter; 0 derives one from the PID so
	// co-located workers desynchronise.
	Seed int64
}

// Defaults for WorkerOptions zero values.
const (
	DefaultMaxRetries = 8
	DefaultRetryBase  = 200 * time.Millisecond
	DefaultRetryMax   = 10 * time.Second
)

// Worker is a fabric worker process: it registers with a coordinator,
// builds its executor from the campaign config the registration returns,
// then loops lease → execute → complete until the run is done or the
// coordinator drains. A renew goroutine reports progress (and the obs
// snapshot heartbeat) every TTL/3; if the coordinator answers Cancel —
// the lease expired and moved on, or the run failed — the in-flight
// execution is aborted via context cancellation and the worker asks for
// fresh work.
type Worker struct {
	opts   WorkerOptions
	client *http.Client
	logf   func(string, ...any)

	id  string
	ttl time.Duration

	rngMu sync.Mutex
	rng   *rand.Rand

	// Metrics.
	leases     *obs.Counter // leases acquired
	completed  *obs.Counter // leases completed and accepted
	staleDrops *obs.Counter // completions the coordinator rejected as stale
	cancels    *obs.Counter // leases abandoned after a Cancel
	retries    *obs.Counter // coordinator call attempts that failed and were retried
	rowsSent   *obs.Counter // result rows shipped
}

// NewWorker validates options and builds a worker.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Coordinator == "" {
		return nil, errors.New("fabric: worker needs a coordinator URL")
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = DefaultMaxRetries
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = DefaultRetryBase
	}
	if opts.RetryMax < opts.RetryBase {
		opts.RetryMax = DefaultRetryMax
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	seed := opts.Seed
	if seed == 0 {
		seed = int64(os.Getpid())*1e9 + 1
	}
	reg := opts.Metrics
	return &Worker{
		opts:       opts,
		client:     client,
		logf:       logf,
		rng:        rand.New(rand.NewSource(seed)),
		leases:     reg.Counter("fabric.worker.leases_acquired"),
		completed:  reg.Counter("fabric.worker.leases_completed"),
		staleDrops: reg.Counter("fabric.worker.completions_stale"),
		cancels:    reg.Counter("fabric.worker.leases_cancelled"),
		retries:    reg.Counter("fabric.worker.coordinator_retries"),
		rowsSent:   reg.Counter("fabric.worker.rows_shipped"),
	}, nil
}

// Run registers, executes leases until the campaign finishes (or the
// coordinator drains), and returns nil on a clean finish. A cancelled
// ctx aborts mid-lease and returns the context error; a coordinator
// unreachable past the retry budget returns ErrCoordinatorUnreachable.
func (w *Worker) Run(ctx context.Context) error {
	host, _ := os.Hostname()
	var reg RegisterResponse
	if err := w.post(ctx, PathRegister, RegisterRequest{Host: host, PID: os.Getpid()}, &reg); err != nil {
		return err
	}
	if reg.Version != ProtocolVersion {
		return fmt.Errorf("fabric: coordinator speaks protocol v%d, worker v%d", reg.Version, ProtocolVersion)
	}
	if reg.LeaseTTLMS <= 0 {
		return fmt.Errorf("%w: non-positive lease TTL %dms", ErrProtocol, reg.LeaseTTLMS)
	}
	if len(reg.Config) == 0 {
		return fmt.Errorf("%w: registration carries no campaign config", ErrProtocol)
	}
	w.id = reg.WorkerID
	w.ttl = time.Duration(reg.LeaseTTLMS) * time.Millisecond
	newExec := w.opts.NewExecutor
	if newExec == nil {
		newExec = func(cfgJSON []byte) (Executor, error) {
			return NewExecutor(cfgJSON, ExecutorOptions{Workers: w.opts.Workers, Metrics: w.opts.Metrics})
		}
	}
	exec, err := newExec(reg.Config)
	if err != nil {
		return fmt.Errorf("fabric: campaign config: %w", err)
	}
	w.logf("registered as %s: lease TTL %v", w.id, w.ttl)

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lr LeaseResponse
		if err := w.post(ctx, PathLease, LeaseRequest{WorkerID: w.id}, &lr); err != nil {
			return err
		}
		switch {
		case lr.Done:
			w.logf("run complete; exiting")
			return nil
		case lr.Draining:
			w.logf("coordinator draining; exiting")
			return nil
		case !lr.Granted:
			// The request parked on the coordinator for its full bound
			// and nothing came free: ask again.
			continue
		}
		lease := Lease{Chunk: lr.Chunk, From: lr.From, To: lr.To, Gen: lr.Gen}
		w.leases.Inc()
		w.logf("lease %d gen %d: range [%d,%d)", lease.Chunk, lease.Gen, lease.From, lease.To)
		if err := w.runLease(ctx, lease, exec); err != nil {
			if errors.Is(err, errLeaseLost) {
				w.cancels.Inc()
				w.logf("lease %d gen %d lost; asking for new work", lease.Chunk, lease.Gen)
				continue
			}
			return err
		}
	}
}

// runLease executes one leased range with a TTL/3 renew loop alongside.
func (w *Worker) runLease(ctx context.Context, lease Lease, exec Executor) error {
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var lost bool // set by the renew loop before cancelling leaseCtx
	var lostMu sync.Mutex
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		interval := w.ttl / 3
		if interval <= 0 {
			interval = time.Millisecond
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-leaseCtx.Done():
				return
			case <-ticker.C:
			}
			var snap *obs.Snapshot
			if w.opts.Metrics != nil {
				s := w.opts.Metrics.Snapshot()
				snap = &s
			}
			var resp ReportResponse
			// Renews use single attempts: the next tick retries anyway, and
			// the lease survives missed renews for a full TTL.
			err := w.postOnce(leaseCtx, PathReport, ReportRequest{
				WorkerID: w.id, Chunk: lease.Chunk, Gen: lease.Gen, Snapshot: snap,
			}, &resp)
			if err != nil {
				if leaseCtx.Err() != nil {
					return
				}
				w.retries.Inc()
				continue
			}
			if resp.Cancel {
				lostMu.Lock()
				lost = true
				lostMu.Unlock()
				cancel()
				return
			}
		}
	}()

	rows, failures, err := exec.Execute(leaseCtx, lease.From, lease.To)
	cancel()
	<-renewDone
	if err != nil {
		lostMu.Lock()
		wasLost := lost
		lostMu.Unlock()
		if wasLost {
			return errLeaseLost
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("fabric: lease %d [%d,%d): %w", lease.Chunk, lease.From, lease.To, err)
	}

	var resp CompleteResponse
	if err := w.post(ctx, PathComplete, CompleteRequest{
		WorkerID: w.id, Chunk: lease.Chunk, Gen: lease.Gen, Rows: rows, Failures: failures,
	}, &resp); err != nil {
		return err
	}
	if resp.Stale {
		// The range was re-leased while we worked (or the run stopped):
		// our payload was discarded (idempotently — the surviving
		// execution's rows are the ones merged). Not an error; just move
		// on.
		w.staleDrops.Inc()
		w.logf("lease %d gen %d completed stale; results discarded by coordinator", lease.Chunk, lease.Gen)
	} else {
		w.completed.Inc()
		w.rowsSent.Add(uint64(len(rows)))
	}
	return nil
}

// post calls a coordinator endpoint with the capped-exponential-backoff
// retry budget: transport errors and 5xx responses retry with jitter up
// to MaxRetries consecutive attempts; 4xx responses are protocol bugs
// and fail immediately.
func (w *Worker) post(ctx context.Context, path string, req, resp any) error {
	var lastErr error
	for attempt := 0; attempt <= w.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			w.retries.Inc()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.backoff(attempt)):
			}
		}
		err := w.postOnce(ctx, path, req, resp)
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe.err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
	}
	return fmt.Errorf("%w: %s failed after %d attempts: %v",
		ErrCoordinatorUnreachable, path, w.opts.MaxRetries+1, lastErr)
}

// permanentError marks a coordinator response that retrying cannot fix.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// postOnce is a single POST attempt: marshal, send, decode.
func (w *Worker) postOnce(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return &permanentError{err: err}
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return &permanentError{err: err}
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := w.client.Do(httpReq)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(httpResp.Body, maxMessageBytes+1))
	if err != nil {
		return err
	}
	if httpResp.StatusCode != http.StatusOK {
		err := fmt.Errorf("fabric: %s: coordinator answered %s: %s",
			path, httpResp.Status, bytes.TrimSpace(data))
		if httpResp.StatusCode >= 400 && httpResp.StatusCode < 500 {
			return &permanentError{err: err}
		}
		return err
	}
	if err := json.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("fabric: %s: malformed response: %w", path, err)
	}
	return nil
}

// backoff computes the jittered capped exponential delay before retry
// attempt n (n >= 1): full jitter over [base/2, base] · 2^(n-1), capped
// at RetryMax.
func (w *Worker) backoff(attempt int) time.Duration {
	d := w.opts.RetryBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= w.opts.RetryMax {
			d = w.opts.RetryMax
			break
		}
	}
	if d > w.opts.RetryMax {
		d = w.opts.RetryMax
	}
	w.rngMu.Lock()
	jittered := d/2 + time.Duration(w.rng.Int63n(int64(d/2)+1))
	w.rngMu.Unlock()
	return jittered
}
