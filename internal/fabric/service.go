package fabric

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"comfase/internal/analysis"
	"comfase/internal/config"
	"comfase/internal/core"
	"comfase/internal/obs"
	"comfase/internal/runner"
)

// ErrDrained marks a service that shut down in draining mode with work
// incomplete: everything leased at drain time was finished (or expired)
// and flushed, but un-leased ranges were never executed. A later
// `comfase serve -resume` run picks up exactly where the merged prefix
// ends.
var ErrDrained = errors.New("fabric: drained before the grid completed")

// DefaultLeaseTTL is the worker lease time-to-live used when the service
// is configured without one. Long enough that a loaded worker renewing
// at TTL/3 never flaps, short enough that a dead worker's range is
// re-leased promptly.
const DefaultLeaseTTL = 15 * time.Second

// DefaultLeaseSize is the per-lease range length used when the service
// is configured without one.
const DefaultLeaseSize = 16

// maxLeaseWait caps how long an ungranted lease request parks on the
// service, safely below the worker's 30 s HTTP client timeout.
const maxLeaseWait = 20 * time.Second

// Campaign is the one grid a Service serves and where its merged output
// goes.
type Campaign struct {
	// Config is the raw campaign/matrix config file: the service derives
	// the grid and failure budget from it and ships it verbatim to every
	// registering worker.
	Config []byte
	// Results is the merged results CSV; Quarantine, when non-empty, the
	// merged quarantine JSON-lines file.
	Results    string
	Quarantine string
	// Resume trusts the contiguous prefix already merged in Results and
	// Quarantine: it is skipped and both files are appended to. Otherwise
	// both files start empty.
	Resume bool
	// MaxFailures, when non-nil, overrides the config's failure budget.
	MaxFailures *int
}

// ServiceOptions tune a fabric Service.
type ServiceOptions struct {
	// LeaseSize is the range length per lease (<= 0 selects
	// DefaultLeaseSize).
	LeaseSize int
	// LeaseTTL is the worker lease time-to-live (<= 0 selects
	// DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Metrics receives the fabric counters and gauges; nil disables.
	Metrics *obs.Registry
	// Now is the clock (nil = time.Now); injectable for expiry tests.
	Now func() time.Time
	// Logf, when non-nil, receives one line per notable event.
	Logf func(format string, args ...any)
}

// chunkPayload buffers an accepted range until the frontier reaches it.
type chunkPayload struct {
	rows     []ResultRow
	failures []FailureRow
}

// workerInfo is the service's per-worker liveness record.
type workerInfo struct {
	host     string
	pid      int
	lastSeen time.Time
	snapshot *obs.Snapshot
	// notifiedEnd: this worker has been answered Done or Draining, so it
	// will not call again. Linger waits for every live worker to reach it.
	notifiedEnd bool
}

// Service is the fabric coordinator of one campaign: it cuts the grid
// into a lease table, leases ranges to a worker fleet, re-leases the
// ranges of workers gone silent, and merges the returned rows through a
// release frontier in grid order. Create with NewService, mount Handler,
// then Wait. The lease table locks itself; everything else is guarded by
// mu (lock order: mu may be held while calling table methods, never the
// reverse).
type Service struct {
	opts ServiceOptions
	now  func() time.Time
	mux  *http.ServeMux

	configJSON  []byte
	base, total int
	matrix      bool
	maxFailures int
	table       *LeaseTable

	// Sinks: the merged results CSV and, when named, the merged
	// quarantine file.
	results    *os.File
	cw         *csv.Writer
	quarantine *os.File

	mu sync.Mutex
	// Release frontier.
	buffered      map[int]chunkPayload
	nextChunk     int
	merged        int
	failures      int
	headerPending bool

	workers  map[string]*workerInfo
	nextWID  int
	draining bool
	err      error
	doneCh   chan struct{}
	doneOnce sync.Once
	// wake is closed and replaced on every state change that can turn an
	// empty acquire into a grant, Done or Draining, and on every Done or
	// Draining answer; parked lease requests and Linger wait on it.
	wake chan struct{}

	rowsMerged     *obs.Counter
	failuresMerged *obs.Counter
	workersLive    *obs.Gauge
	workersSeen    *obs.Counter
	leaseParked    *obs.Gauge
	leaseWait      *obs.Histogram
}

// NewService derives the campaign's grid from its config, opens its
// results and quarantine files and builds the service that leases the
// grid. With c.Resume the contiguous prefix already merged on disk is
// marked done, so a restarted coordinator picks up exactly where the
// previous one's frontier stopped.
func NewService(c Campaign, opts ServiceOptions) (*Service, error) {
	if opts.LeaseSize <= 0 {
		opts.LeaseSize = DefaultLeaseSize
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	parsed, err := config.Parse(bytes.NewReader(c.Config))
	if err != nil {
		return nil, fmt.Errorf("fabric: campaign config: %w", err)
	}
	cells, matrix := parsed.Grid()
	base, total := runner.GridSpan(cells)
	if total == 0 {
		return nil, errors.New("fabric: the config describes an empty campaign grid")
	}
	maxFailures := parsed.Runtime.MaxFailures
	if c.MaxFailures != nil {
		maxFailures = *c.MaxFailures
	}
	prefix := 0
	if c.Resume {
		if prefix, err = readMergedPrefix(c.Results, c.Quarantine, base, total); err != nil {
			return nil, fmt.Errorf("fabric: %w", err)
		}
	}
	table, err := NewLeaseTable(base, total, opts.LeaseSize, opts.LeaseTTL, now, opts.Metrics)
	if err != nil {
		return nil, err
	}
	s := &Service{
		opts:           opts,
		now:            now,
		configJSON:     c.Config,
		base:           base,
		total:          total,
		matrix:         matrix,
		maxFailures:    maxFailures,
		table:          table,
		buffered:       make(map[int]chunkPayload),
		workers:        make(map[string]*workerInfo),
		doneCh:         make(chan struct{}),
		wake:           make(chan struct{}),
		rowsMerged:     opts.Metrics.Counter("fabric.rows_merged"),
		failuresMerged: opts.Metrics.Counter("fabric.failures_merged"),
		workersLive:    opts.Metrics.Gauge("fabric.workers_live"),
		workersSeen:    opts.Metrics.Counter("fabric.workers_registered"),
		leaseParked:    opts.Metrics.Gauge("fabric.lease_parked"),
		leaseWait:      opts.Metrics.Histogram("fabric.lease_wait", obs.DurationBounds()...),
	}
	if err := s.openSinks(c); err != nil {
		return nil, err
	}
	if prefix > 0 {
		table.MarkDonePrefix(base + prefix)
		for s.nextChunk < table.NumChunks() {
			_, to, _ := table.Bounds(s.nextChunk)
			if to > base+prefix {
				break
			}
			s.nextChunk++
		}
		s.merged = prefix
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST "+PathRegister, s.handleRegister)
	s.mux.HandleFunc("POST "+PathLease, s.handleLease)
	s.mux.HandleFunc("POST "+PathReport, s.handleReport)
	s.mux.HandleFunc("POST "+PathComplete, s.handleComplete)
	s.mux.HandleFunc("GET "+PathStatus, s.handleStatus)
	s.logf("campaign grid [%d,%d): %d chunk(s), %d grid point(s) already merged", base, base+total, table.NumChunks(), prefix)
	return s, nil
}

// readMergedPrefix reads a coordinator's merged results (and optional
// quarantine) files, truncates any partial trailing line a mid-write
// crash left behind, and returns how many grid points from base on they
// cover as a contiguous prefix. The release frontier only ever writes
// contiguous prefixes, so a record beyond it means the files are not a
// coordinator output (a resume-holed or range-selected campaign file,
// or files from a different grid): the resume refuses rather than
// silently discard it. Errors name the offending file.
func readMergedPrefix(results, quarantine string, base, total int) (int, error) {
	if err := truncateToLastNewline(results); err != nil {
		return 0, fmt.Errorf("results file %s: %w", results, err)
	}
	rows, err := runner.ReadResultsFile(results)
	if err != nil {
		return 0, fmt.Errorf("results file %s: %w", results, err)
	}
	fails := map[int]core.ExperimentFailure{}
	if quarantine != "" {
		if err := truncateToLastNewline(quarantine); err != nil {
			return 0, fmt.Errorf("quarantine file %s: %w", quarantine, err)
		}
		if fails, err = runner.ReadQuarantineFile(quarantine); err != nil {
			return 0, fmt.Errorf("quarantine file %s: %w", quarantine, err)
		}
	}
	prefix := 0
	for ; prefix < total; prefix++ {
		_, inRows := rows[base+prefix]
		_, inFails := fails[base+prefix]
		if !inRows && !inFails {
			break
		}
	}
	if extra := len(rows) + len(fails) - prefix; extra > 0 {
		return 0, fmt.Errorf("results file %s holds %d record(s) beyond its %d-point contiguous prefix — not a coordinator output of this grid",
			results, extra, prefix)
	}
	return prefix, nil
}

// truncateToLastNewline chops a partial trailing line (a crash
// mid-write) off a line-oriented output file so appending to it stays
// parseable. Missing files are fine; a file with no newline at all is
// emptied.
func truncateToLastNewline(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(data) == 0 || data[len(data)-1] == '\n' {
		return nil
	}
	return os.Truncate(path, int64(bytes.LastIndexByte(data, '\n')+1))
}

// Handler returns the service's HTTP handler: the worker data plane
// plus the status document.
func (s *Service) Handler() http.Handler { return s.mux }

func (s *Service) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// LeaseTTL reports the resolved worker lease time-to-live.
func (s *Service) LeaseTTL() time.Duration { return s.opts.LeaseTTL }

// openSinks opens the results and quarantine files. A fresh campaign
// truncates both. A resumed one appends to both — its merged prefix,
// quarantine records included, stays on disk — and the CSV header goes
// out with the first row only if the results file holds none yet.
func (s *Service) openSinks(c Campaign) error {
	mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if c.Resume {
		mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	rf, err := os.OpenFile(c.Results, mode, 0o644)
	if err != nil {
		return fmt.Errorf("fabric: results: %w", err)
	}
	info, err := rf.Stat()
	if err != nil {
		rf.Close()
		return fmt.Errorf("fabric: results: %w", err)
	}
	s.results, s.cw, s.headerPending = rf, csv.NewWriter(rf), info.Size() == 0
	if c.Quarantine != "" {
		if s.quarantine, err = os.OpenFile(c.Quarantine, mode, 0o644); err != nil {
			rf.Close()
			return fmt.Errorf("fabric: quarantine: %w", err)
		}
	}
	return nil
}

// acquireWait is a lease grant as a long poll: an empty answer parks the
// request until a state change lets the table answer otherwise, the
// client goes away, or the bound — TTL/2, capped by maxLeaseWait —
// elapses.
func (s *Service) acquireWait(ctx context.Context, workerID string) (Lease, AcquireStatus) {
	var bound <-chan time.Time
	for {
		// Read the wake channel before acquiring, so a state change
		// between the two is not lost.
		s.mu.Lock()
		wake := s.wake
		s.mu.Unlock()
		if lease, status := s.table.Acquire(workerID); status != AcquireEmpty {
			return lease, status
		}
		if bound == nil {
			// start precedes the timer, so a wait that ran to the bound is
			// never recorded as shorter than it.
			start := time.Now()
			timer := time.NewTimer(min(s.opts.LeaseTTL/2, maxLeaseWait))
			s.leaseParked.Add(1)
			defer func() {
				timer.Stop()
				s.leaseParked.Add(-1)
				s.leaseWait.ObserveDuration(time.Since(start))
				s.touchWorker(workerID, nil)
			}()
			bound = timer.C
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return Lease{}, AcquireEmpty
		case <-bound:
			return Lease{}, AcquireEmpty
		}
	}
}

// wakeLocked releases every parked lease request to re-run acquire;
// Service.mu held.
func (s *Service) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// fail records a fatal error (a failure-budget abort, a sink I/O error)
// and stops the run: nothing more is granted or merged, and Wait
// returns err.
func (s *Service) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.draining = true
	s.table.Drain()
	s.mu.Unlock()
	s.logf("campaign failed: %v", err)
	s.finish(err)
}

// finish flushes and closes the sinks and releases Wait exactly once.
func (s *Service) finish(err error) {
	s.doneOnce.Do(func() {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.cw.Flush()
		if ferr := s.cw.Error(); ferr != nil && s.err == nil {
			s.err = fmt.Errorf("fabric: results flush: %w", ferr)
		}
		if cerr := s.results.Close(); cerr != nil && s.err == nil {
			s.err = fmt.Errorf("fabric: results: %w", cerr)
		}
		if s.quarantine != nil {
			if cerr := s.quarantine.Close(); cerr != nil && s.err == nil {
				s.err = fmt.Errorf("fabric: quarantine: %w", cerr)
			}
		}
		s.wakeLocked()
		s.mu.Unlock()
		close(s.doneCh)
	})
}

// Drain switches the service to draining mode: outstanding leases may
// finish and report, nothing new is granted, and Wait returns once no
// range is leased. The merged prefix on disk stays resumable.
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	s.table.Drain()
	s.wakeLocked()
	s.mu.Unlock()
	s.logf("draining: finishing leased ranges, leasing nothing new")
}

// drainingNow reports the drain flag.
func (s *Service) drainingNow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// completionError distinguishes "everything complete" (nil) from
// "drained early" at shutdown; a recorded fatal error wins.
func (s *Service) completionError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.err != nil:
		return s.err
	case s.merged < s.total:
		return fmt.Errorf("%w: %d/%d grid points merged", ErrDrained, s.merged, s.total)
	}
	return nil
}

// Wait blocks until the campaign is complete, a fatal error occurs, or
// — after ctx is canceled — the drain finishes. It owns the liveness
// sweeper.
func (s *Service) Wait(ctx context.Context) error {
	sweep := time.NewTicker(s.sweepInterval())
	defer sweep.Stop()
	// A resume of a finished grid has nothing to wait for.
	if s.table.Done() {
		s.finish(nil)
	}
	ctxDone := ctx.Done()
	for {
		select {
		case <-s.doneCh:
			return s.runError()
		case <-ctxDone:
			ctxDone = nil // handled; don't spin on the closed channel
			s.Drain()
			if s.table.Idle() {
				s.finish(s.completionError())
			}
		case <-sweep.C:
			s.sweep()
			if s.drainingNow() && s.table.Idle() {
				s.finish(s.completionError())
			}
		}
	}
}

// sweep returns expired leases to the pool, refreshes the workers-live
// gauge and wakes parked lease requests. It wakes them even when it
// expired nothing, because a late renew or completion may have expired a
// lease on its own since the last tick.
func (s *Service) sweep() {
	if expired := s.table.Sweep(); expired > 0 {
		s.logf("expired %d lease(s); ranges return to the pool", expired)
	}
	s.updateLiveness()
	s.mu.Lock()
	s.wakeLocked()
	s.mu.Unlock()
}

func (s *Service) runError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// sweepInterval is a quarter of the TTL, clamped to stay responsive for
// the short TTLs tests use without busy-looping for long ones.
func (s *Service) sweepInterval() time.Duration {
	iv := s.opts.LeaseTTL / 4
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	if iv > 5*time.Second {
		iv = 5 * time.Second
	}
	return iv
}

// updateLiveness refreshes the workers-live gauge.
func (s *Service) updateLiveness() {
	cutoff := s.now().Add(-s.opts.LeaseTTL)
	s.mu.Lock()
	live := int64(0)
	for _, w := range s.workers {
		if w.lastSeen.After(cutoff) {
			live++
		}
	}
	s.mu.Unlock()
	s.workersLive.Set(live)
}

// touchWorker stamps a worker's liveness; unknown IDs are ignored.
func (s *Service) touchWorker(id string, snap *obs.Snapshot) {
	s.mu.Lock()
	if w, ok := s.workers[id]; ok {
		w.lastSeen = s.now()
		if snap != nil {
			w.snapshot = snap
		}
	}
	s.mu.Unlock()
}

// markNotified records that a worker has been answered Done or Draining
// and will not call back, and wakes Linger to re-check.
func (s *Service) markNotified(id string) {
	s.mu.Lock()
	if w, ok := s.workers[id]; ok {
		w.notifiedEnd = true
	}
	s.wakeLocked()
	s.mu.Unlock()
}

// Linger blocks until every live worker has been answered Done or
// Draining, or one lease TTL passes. Call it after Wait and before
// shutting the HTTP server down: a worker between two requests when the
// run ended is about to ask for a lease, and must find the socket open.
// An answer wakes it at once; the ticker notices a silent worker ageing
// out of liveness.
func (s *Service) Linger() {
	deadline := time.Now().Add(s.opts.LeaseTTL)
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	for time.Now().Before(deadline) {
		s.mu.Lock()
		wake, cutoff, pending := s.wake, s.now().Add(-s.opts.LeaseTTL), false
		for _, w := range s.workers {
			pending = pending || (!w.notifiedEnd && w.lastSeen.After(cutoff))
		}
		s.mu.Unlock()
		if !pending {
			return
		}
		select {
		case <-wake:
		case <-ticker.C:
		}
	}
}

// ---- worker data-plane handlers ------------------------------------

// readBody slurps a protocol request under the message size cap.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxMessageBytes))
	if err != nil {
		http.Error(w, "fabric: oversized or unreadable body", http.StatusBadRequest)
		return nil, false
	}
	return data, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The client will see a truncated body and retry.
		return
	}
}

func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeRegisterRequest(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.nextWID++
	id := "w" + strconv.Itoa(s.nextWID)
	s.workers[id] = &workerInfo{host: req.Host, pid: req.PID, lastSeen: s.now()}
	s.mu.Unlock()
	s.workersSeen.Inc()
	s.logf("worker %s registered (host=%s pid=%d)", id, req.Host, req.PID)
	writeJSON(w, RegisterResponse{
		Version:    ProtocolVersion,
		WorkerID:   id,
		Config:     json.RawMessage(s.configJSON),
		LeaseTTLMS: s.opts.LeaseTTL.Milliseconds(),
	})
}

func (s *Service) handleLease(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeLeaseRequest(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.touchWorker(req.WorkerID, nil)
	lease, status := s.acquireWait(r.Context(), req.WorkerID)
	switch status {
	case AcquireGranted:
		s.logf("leased chunk %d [%d,%d) gen %d to %s", lease.Chunk, lease.From, lease.To, lease.Gen, req.WorkerID)
		writeJSON(w, LeaseResponse{Granted: true, Chunk: lease.Chunk, From: lease.From, To: lease.To, Gen: lease.Gen})
	case AcquireDone:
		s.markNotified(req.WorkerID)
		writeJSON(w, LeaseResponse{Done: true})
	case AcquireDraining:
		s.markNotified(req.WorkerID)
		writeJSON(w, LeaseResponse{Draining: true})
	default: // AcquireEmpty: the parked request reached its bound.
		writeJSON(w, LeaseResponse{})
	}
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeReportRequest(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.touchWorker(req.WorkerID, req.Snapshot)
	// The run has stopped, or the lease is gone: tell the worker to
	// abandon the range.
	if s.runError() != nil || s.table.Renew(req.WorkerID, req.Chunk, req.Gen) != nil {
		writeJSON(w, ReportResponse{OK: false, Cancel: true})
		return
	}
	writeJSON(w, ReportResponse{OK: true})
}

func (s *Service) handleComplete(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeCompleteRequest(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.touchWorker(req.WorkerID, nil)
	from, to, err := s.table.Bounds(req.Chunk)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Verify coverage before touching the lease: every expNr in
	// [from, to) exactly once, as a result row or a quarantine record.
	// A worker shipping garbage must not consume the lease.
	if err := verifyCoverage(from, to, req.Rows, req.Failures); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// The lease is completed and its rows released under one hold of mu,
	// so the sinks cannot be closed between the two.
	s.mu.Lock()
	if s.err != nil || s.table.Complete(req.WorkerID, req.Chunk, req.Gen) != nil {
		s.mu.Unlock()
		// A late completion from a presumed-dead worker (the range was, or
		// will be, re-executed elsewhere) or one arriving after the run
		// stopped: discard it idempotently.
		s.logf("rejected stale completion of chunk %d gen %d from %s", req.Chunk, req.Gen, req.WorkerID)
		writeJSON(w, CompleteResponse{OK: false, Stale: true})
		return
	}
	s.buffered[req.Chunk] = chunkPayload{rows: req.Rows, failures: req.Failures}
	s.failures += len(req.Failures)
	werr := s.releaseLocked()
	merged, failures := s.merged, s.failures
	s.mu.Unlock()
	if werr != nil {
		s.fail(werr)
		http.Error(w, werr.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, CompleteResponse{OK: true})
	switch {
	case s.maxFailures >= 0 && failures > s.maxFailures:
		// The triggering records are already merged and durable; stop
		// granting work and surface the budget error, mirroring the
		// runner's ErrFailureBudget semantics.
		s.fail(fmt.Errorf("%w: %d persistent failure(s) over budget %d",
			runner.ErrFailureBudget, failures, s.maxFailures))
	case merged == s.total:
		s.logf("campaign complete: %d grid points merged (%d quarantined)", merged, failures)
		s.finish(nil)
	}
}

// Status returns the /v1/status document: the campaign's progress and
// every registered worker's liveness.
func (s *Service) Status() StatusResponse {
	cutoff := s.now().Add(-s.opts.LeaseTTL)
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StatusResponse{
		Version: ProtocolVersion, Draining: s.draining,
		Total: s.total, Merged: s.merged, Failures: s.failures,
		Chunks: s.table.NumChunks(), ChunksDone: s.table.DoneChunks(),
	}
	ids := make([]string, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		wi := s.workers[id]
		st.Workers = append(st.Workers, WorkerStatus{
			ID: id, Host: wi.host, PID: wi.pid,
			LastSeenUnix: wi.lastSeen.Unix(),
			Live:         wi.lastSeen.After(cutoff),
		})
	}
	return st
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Status())
}

// ---- merge frontier ------------------------------------------------

// releaseLocked writes every buffered chunk at the frontier in chunk
// order: result rows to the CSV writer, failure records to the
// quarantine file, both already in their exact sequential encodings.
// The caller holds s.mu.
func (s *Service) releaseLocked() error {
	for {
		payload, ok := s.buffered[s.nextChunk]
		if !ok {
			break
		}
		delete(s.buffered, s.nextChunk)
		// Rows and failures each arrive sorted; interleave by expNr so
		// the quarantine stream is globally grid-ordered like the CSV.
		ri, fi := 0, 0
		for ri < len(payload.rows) || fi < len(payload.failures) {
			if fi >= len(payload.failures) || (ri < len(payload.rows) && payload.rows[ri].Nr < payload.failures[fi].Nr) {
				if s.headerPending {
					if err := s.writeHeader(); err != nil {
						return err
					}
					s.headerPending = false
				}
				if err := s.cw.Write(payload.rows[ri].Fields); err != nil {
					return fmt.Errorf("fabric: results write: %w", err)
				}
				s.rowsMerged.Inc()
				ri++
			} else {
				if s.quarantine != nil {
					if _, err := s.quarantine.Write(append(payload.failures[fi].Record, '\n')); err != nil {
						return fmt.Errorf("fabric: quarantine write: %w", err)
					}
				}
				s.failuresMerged.Inc()
				fi++
			}
			s.merged++
		}
		s.cw.Flush()
		if err := s.cw.Error(); err != nil {
			return fmt.Errorf("fabric: results flush: %w", err)
		}
		s.nextChunk++
	}
	return nil
}

func (s *Service) writeHeader() error {
	if err := s.cw.Write(resultHeader(s.matrix)); err != nil {
		return fmt.Errorf("fabric: results header: %w", err)
	}
	s.cw.Flush()
	return s.cw.Error()
}

// verifyCoverage checks that rows and failures partition [from, to):
// each sorted strictly ascending, union exactly the interval.
func verifyCoverage(from, to int, rows []ResultRow, failures []FailureRow) error {
	ri, fi := 0, 0
	for nr := from; nr < to; nr++ {
		switch {
		case ri < len(rows) && rows[ri].Nr == nr:
			if fi < len(failures) && failures[fi].Nr == nr {
				return fmt.Errorf("%w: expNr %d present as both result and failure", ErrProtocol, nr)
			}
			ri++
		case fi < len(failures) && failures[fi].Nr == nr:
			fi++
		default:
			return fmt.Errorf("%w: completion of [%d,%d) is missing expNr %d", ErrProtocol, from, to, nr)
		}
	}
	if ri != len(rows) || fi != len(failures) {
		return fmt.Errorf("%w: completion of [%d,%d) carries expNrs outside the range", ErrProtocol, from, to)
	}
	return nil
}

// resultHeader is the CSV header for the configured schema.
func resultHeader(matrix bool) []string {
	if matrix {
		return analysis.MatrixCSVHeader()
	}
	return analysis.ExperimentCSVHeader()
}
