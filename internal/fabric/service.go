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
	"sync/atomic"
	"time"

	"comfase/internal/analysis"
	"comfase/internal/config"
	"comfase/internal/obs"
	"comfase/internal/runner"
)

// Campaign lifecycle states as reported by the control plane.
const (
	StateQueued    = "queued"    // submitted, no range granted yet
	StateRunning   = "running"   // at least one range granted
	StateDone      = "done"      // every grid point merged
	StateFailed    = "failed"    // fatal error (failure budget, sink I/O)
	StateCancelled = "cancelled" // cancelled by the operator
)

// ErrDrained marks a service that shut down in draining mode with work
// incomplete: everything leased at drain time was finished (or expired)
// and flushed, but un-leased ranges were never executed. A later
// `comfase serve -resume` run picks up exactly where each campaign's
// merged prefix ends.
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

// DefaultFairnessCap bounds how many chunks one campaign may hold leased
// while other active campaigns still have pending work. The scheduler is
// work-conserving: the cap shapes preference, it never idles a worker.
const DefaultFairnessCap = 4

// ServiceOptions configure a multi-campaign fabric Service.
type ServiceOptions struct {
	// Dir, when set, enables submit mode: campaigns arrive over the
	// /v1/campaigns API, every campaign's artifacts live side by side in
	// this directory under the runner.CampaignFilesIn layout, and the
	// service runs until drained. When empty the service accepts no
	// submissions, runs only the campaigns added with Add, and finishes
	// once every one of them is terminal.
	Dir string
	// Resume, with Dir, re-adopts every campaign already in the
	// directory: each `<id>.config.json` is re-submitted with its merged
	// contiguous prefix skipped, so a restarted service picks up exactly
	// where the previous incarnation's frontier stopped.
	Resume bool
	// LeaseSize is the range length per lease (<= 0 selects
	// DefaultLeaseSize).
	LeaseSize int
	// LeaseTTL is the worker lease time-to-live (<= 0 selects
	// DefaultLeaseTTL).
	LeaseTTL time.Duration
	// FairnessCap bounds per-campaign concurrent leases while other
	// campaigns have pending work (<= 0 selects DefaultFairnessCap).
	FairnessCap int
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

// serviceCampaign is one campaign's full server-side state. The lease
// table locks itself; everything else is guarded by Service.mu (lock
// order: Service.mu may be held while calling table methods, never the
// reverse).
type serviceCampaign struct {
	id, name    string
	seq         int
	base, total int
	matrix      bool
	maxFailures int
	configJSON  []byte
	files       runner.CampaignFiles // empty paths are not written
	table       *LeaseTable

	// Sinks. cw writes through to the primary sink and the in-memory
	// mirror feeding the results snapshot; quarantine likewise.
	cw         *csv.Writer
	quarantine io.Writer
	mem        *bytes.Buffer // merged CSV mirror
	memQ       *bytes.Buffer // merged quarantine mirror
	closers    []io.Closer

	// Release frontier (guarded by Service.mu).
	buffered      map[int]chunkPayload
	nextChunk     int
	merged        int
	failures      int
	headerPending bool
	started       bool
	cancelled     bool
	failedErr     error

	// snapshot is the results endpoint's only data source: swapped
	// atomically at every frontier release and state change, never read
	// through worker or lease-table state.
	snapshot atomic.Pointer[CampaignResultsResponse]

	rowsMerged     *obs.Counter // labeled per campaign
	failuresMerged *obs.Counter
}

// Service is the multi-campaign fabric coordinator: a queue of campaign
// grids, each with its own namespaced lease table, generation counters,
// release frontier and output files, drained oldest-first by a shared
// worker fleet under a per-campaign fairness cap. Create with
// NewService, mount Handler, add campaigns (Add, or Submit over the API
// in submit mode), then Wait.
type Service struct {
	opts       ServiceOptions
	now        func() time.Time
	mux        *http.ServeMux
	submitMode bool

	// submitMu serializes submissions, so a rejected config does not
	// consume a campaign ID; nextSeq is guarded by it.
	submitMu sync.Mutex
	nextSeq  int

	mu        sync.Mutex
	campaigns map[string]*serviceCampaign
	order     []string // campaign IDs in submission order
	workers   map[string]*workerInfo
	nextWID   int
	draining  bool
	err       error
	doneCh    chan struct{}
	doneOnce  sync.Once
	// wake is closed and replaced on every state change that can turn an
	// empty acquire into a grant, Done or Draining, and on every Done or
	// Draining answer; parked lease requests and Linger wait on it.
	wake chan struct{}

	rowsMerged     *obs.Counter
	failuresMerged *obs.Counter
	workersLive    *obs.Gauge
	workersSeen    *obs.Counter
	submitted      *obs.Counter
	finished       *obs.Counter
	leaseParked    *obs.Gauge
	leaseWait      *obs.Histogram
}

// NewService validates the options and, in resume mode, re-adopts every
// campaign already present in the service directory.
func NewService(opts ServiceOptions) (*Service, error) {
	if opts.LeaseSize <= 0 {
		opts.LeaseSize = DefaultLeaseSize
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.FairnessCap <= 0 {
		opts.FairnessCap = DefaultFairnessCap
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	s := &Service{
		opts:           opts,
		now:            now,
		submitMode:     opts.Dir != "",
		campaigns:      make(map[string]*serviceCampaign),
		workers:        make(map[string]*workerInfo),
		doneCh:         make(chan struct{}),
		wake:           make(chan struct{}),
		rowsMerged:     opts.Metrics.Counter("fabric.rows_merged"),
		failuresMerged: opts.Metrics.Counter("fabric.failures_merged"),
		workersLive:    opts.Metrics.Gauge("fabric.workers_live"),
		workersSeen:    opts.Metrics.Counter("fabric.workers_registered"),
		submitted:      opts.Metrics.Counter("fabric.campaigns_submitted"),
		finished:       opts.Metrics.Counter("fabric.campaigns_finished"),
		leaseParked:    opts.Metrics.Gauge("fabric.lease_parked"),
		leaseWait:      opts.Metrics.Histogram("fabric.lease_wait", obs.DurationBounds()...),
	}
	if s.submitMode {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("fabric: service dir: %w", err)
		}
		if opts.Resume {
			if err := s.resumeDir(); err != nil {
				return nil, err
			}
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST "+PathRegister, s.handleRegister)
	s.mux.HandleFunc("POST "+PathLease, s.handleLease)
	s.mux.HandleFunc("POST "+PathReport, s.handleReport)
	s.mux.HandleFunc("POST "+PathComplete, s.handleComplete)
	s.mux.HandleFunc("GET "+PathStatus, s.handleStatus)
	s.mux.HandleFunc("POST "+PathCampaigns, s.handleSubmit)
	s.mux.HandleFunc("GET "+PathCampaigns, s.handleList)
	s.mux.HandleFunc("GET "+PathCampaignStatus, s.handleCampaignStatus)
	s.mux.HandleFunc("POST "+PathCampaignCancel, s.handleCancel)
	s.mux.HandleFunc("GET "+PathCampaignResults, s.handleResults)
	return s, nil
}

// Handler returns the service's HTTP handler (worker data plane plus the
// /v1/campaigns control plane).
func (s *Service) Handler() http.Handler { return s.mux }

func (s *Service) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// LeaseTTL reports the resolved worker lease time-to-live.
func (s *Service) LeaseTTL() time.Duration { return s.opts.LeaseTTL }

// gridDims derives the grid geometry and failure budget from a raw
// campaign/matrix config file.
func gridDims(cfgJSON []byte) (base, total int, matrix bool, maxFailures int, err error) {
	parsed, err := config.Parse(bytes.NewReader(cfgJSON))
	if err != nil {
		return 0, 0, false, 0, err
	}
	cells, matrix := parsed.Grid()
	base, total = runner.GridSpan(cells)
	if total == 0 {
		return 0, 0, false, 0, errors.New("the config describes an empty campaign grid")
	}
	return base, total, matrix, parsed.Runtime.MaxFailures, nil
}

// Submit enqueues a new campaign from its raw config file under the
// next free ID in the service directory. Only valid in submit mode.
func (s *Service) Submit(name string, cfgJSON []byte) (SubmitResponse, error) {
	if !s.submitMode {
		return SubmitResponse{}, errors.New("fabric: campaign submission requires a service directory (start serve with -dir)")
	}
	s.submitMu.Lock()
	defer s.submitMu.Unlock()
	if s.drainingNow() {
		return SubmitResponse{}, errors.New("fabric: service is draining; submissions closed")
	}
	id := "c" + strconv.Itoa(s.nextSeq+1)
	st, err := s.Add(name, cfgJSON, runner.CampaignFilesIn(s.opts.Dir, id), false, nil)
	if err != nil {
		return SubmitResponse{}, err
	}
	s.nextSeq++
	return SubmitResponse{CampaignID: st.ID, Base: st.Base, Total: st.Total, Position: st.SubmittedSeq}, nil
}

// resumeDir re-adopts every campaign in the service directory: the
// persisted config is the source of truth, the merged files' contiguous
// prefix is skipped, and ID numbering continues past the highest
// existing campaign number.
func (s *Service) resumeDir() error {
	list, err := runner.ListCampaignDirs(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("fabric: scanning service dir: %w", err)
	}
	for _, files := range list {
		cfgJSON, err := os.ReadFile(files.Config)
		if err != nil {
			return fmt.Errorf("fabric: campaign %s: %w", files.ID, err)
		}
		name := ""
		if data, err := os.ReadFile(files.Status); err == nil {
			var st CampaignStatus
			if json.Unmarshal(data, &st) == nil {
				name = st.Name
			}
		}
		st, err := s.Add(name, cfgJSON, files, true, nil)
		if err != nil {
			return err
		}
		s.logf("resumed campaign %s: %d/%d grid points already merged", files.ID, st.Merged, st.Total)
		if _, n, ok := splitTrailingCampaignInt(files.ID); ok && n >= s.nextSeq {
			s.nextSeq = n
		}
	}
	return nil
}

// splitTrailingCampaignInt extracts a campaign ID's trailing number so
// resumed services continue numbering past it.
func splitTrailingCampaignInt(id string) (prefix string, n int, ok bool) {
	i := len(id)
	for i > 0 && id[i-1] >= '0' && id[i-1] <= '9' {
		i--
	}
	if i == len(id) {
		return id, 0, false
	}
	n, err := strconv.Atoi(id[i:])
	if err != nil {
		return id, 0, false
	}
	return id[:i], n, true
}

// Add is the one way a campaign enters the service: a submission, a
// campaign re-adopted from the service directory, or the campaign
// `comfase serve -config` names. It derives the grid from the raw config
// file, opens the campaign's results and quarantine files, and queues
// the grid for the fleet under files.ID. Empty paths in files are not
// written: no config or status document without a service directory, no
// quarantine file unless one is named. With resume, the contiguous
// prefix already merged on disk is skipped and both files are appended
// to; otherwise the config is persisted and both files start empty.
// maxFailures, when non-nil, overrides the config's failure budget.
func (s *Service) Add(name string, cfgJSON []byte, files runner.CampaignFiles, resume bool, maxFailures *int) (CampaignStatus, error) {
	base, total, matrix, budget, err := gridDims(cfgJSON)
	if err != nil {
		return CampaignStatus{}, fmt.Errorf("fabric: campaign %s: %w", files.ID, err)
	}
	if maxFailures != nil {
		budget = *maxFailures
	}
	prefix := 0
	if resume {
		// The release frontier writes a contiguous grid prefix, so "done
		// so far" is exactly the rows + quarantine records below the first
		// missing expNr. ReadMergedPrefix also chops any partial trailing
		// line a mid-write crash left, and its rejection names the file.
		if prefix, err = runner.ReadMergedPrefix(files.Results, files.Quarantine, base, total); err != nil {
			return CampaignStatus{}, fmt.Errorf("fabric: campaign %s: %w", files.ID, err)
		}
	} else if files.Config != "" {
		if err := os.WriteFile(files.Config, cfgJSON, 0o644); err != nil {
			return CampaignStatus{}, fmt.Errorf("fabric: persisting campaign config: %w", err)
		}
	}
	table, err := NewLeaseTable(base, total, s.opts.LeaseSize, s.opts.LeaseTTL, s.now, s.opts.Metrics, "campaign", files.ID)
	if err != nil {
		return CampaignStatus{}, err
	}
	c := &serviceCampaign{
		id: files.ID, name: name,
		base: base, total: total,
		matrix: matrix, maxFailures: budget,
		configJSON:     cfgJSON,
		files:          files,
		table:          table,
		mem:            &bytes.Buffer{},
		memQ:           &bytes.Buffer{},
		buffered:       make(map[int]chunkPayload),
		rowsMerged:     s.opts.Metrics.Counter(obs.Label("fabric.campaign.rows_merged", "campaign", files.ID)),
		failuresMerged: s.opts.Metrics.Counter(obs.Label("fabric.campaign.failures_merged", "campaign", files.ID)),
	}
	if err := c.openSinks(resume); err != nil {
		return CampaignStatus{}, err
	}
	if prefix > 0 {
		table.MarkDonePrefix(base + prefix)
		for c.nextChunk < table.NumChunks() {
			_, to, _ := table.Bounds(c.nextChunk)
			if to > base+prefix {
				break
			}
			c.nextChunk++
		}
		c.merged = prefix
	}

	s.mu.Lock()
	if _, dup := s.campaigns[c.id]; dup {
		s.mu.Unlock()
		c.closeSinks()
		return CampaignStatus{}, fmt.Errorf("fabric: duplicate campaign ID %q", c.id)
	}
	c.seq = len(s.order) + 1
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	s.publishLocked(c)
	s.wakeLocked()
	st := c.statusLocked()
	s.mu.Unlock()
	s.submitted.Inc()
	s.logf("campaign %s submitted: grid [%d,%d), %d chunk(s)", c.id, base, base+total, table.NumChunks())
	return st, nil
}

// openSinks opens the campaign's results and quarantine files. A fresh
// campaign truncates both. A resumed one appends to both — its merged
// prefix, quarantine records included, stays on disk — and loads the
// merged bytes into the in-memory mirrors so the results endpoint sees
// the full stream; the CSV header then goes out only if the results
// file holds none yet.
func (c *serviceCampaign) openSinks(resume bool) error {
	mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if resume {
		mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		if data, err := os.ReadFile(c.files.Results); err == nil {
			c.mem.Write(data)
		}
		if data, err := os.ReadFile(c.files.Quarantine); err == nil {
			c.memQ.Write(data)
		}
	}
	rf, err := os.OpenFile(c.files.Results, mode, 0o644)
	if err != nil {
		return fmt.Errorf("fabric: campaign %s results: %w", c.id, err)
	}
	c.closers = append(c.closers, rf)
	c.cw = csv.NewWriter(io.MultiWriter(rf, c.mem))
	c.headerPending = c.mem.Len() == 0
	if c.files.Quarantine != "" {
		qf, err := os.OpenFile(c.files.Quarantine, mode, 0o644)
		if err != nil {
			c.closeSinks()
			return fmt.Errorf("fabric: campaign %s quarantine: %w", c.id, err)
		}
		c.closers = append(c.closers, qf)
		c.quarantine = qf
	}
	return nil
}

func (c *serviceCampaign) closeSinks() {
	for _, cl := range c.closers {
		cl.Close()
	}
	c.closers = nil
}

// stateLocked computes the campaign's lifecycle state; Service.mu held.
func (c *serviceCampaign) stateLocked() string {
	switch {
	case c.cancelled:
		return StateCancelled
	case c.failedErr != nil:
		return StateFailed
	case c.table.Done():
		return StateDone
	case c.started:
		return StateRunning
	default:
		return StateQueued
	}
}

// active reports whether the scheduler should still hand out this
// campaign's ranges; Service.mu held.
func (c *serviceCampaign) activeLocked() bool {
	return !c.cancelled && c.failedErr == nil && !c.table.Done()
}

// statusLocked renders the campaign's control-plane document.
func (c *serviceCampaign) statusLocked() CampaignStatus {
	st := CampaignStatus{
		ID: c.id, Name: c.name, State: c.stateLocked(),
		Base: c.base, Total: c.total,
		Merged: c.merged, Failures: c.failures,
		Chunks: c.table.NumChunks(), ChunksDone: c.table.DoneChunks(),
		SubmittedSeq: c.seq,
	}
	if c.failedErr != nil {
		st.Error = c.failedErr.Error()
	}
	return st
}

// publishLocked refreshes the campaign's atomic results snapshot and,
// when it has one, its on-disk status document. Service.mu held. The
// snapshot is the results endpoint's ONLY data source; it carries what
// the frontier has durably released, never in-flight worker state.
func (s *Service) publishLocked(c *serviceCampaign) {
	st := c.statusLocked()
	c.snapshot.Store(&CampaignResultsResponse{
		CampaignID: c.id,
		State:      st.State,
		Merged:     c.merged,
		Total:      c.total,
		CSV:        c.mem.String(),
		Quarantine: c.memQ.String(),
	})
	if c.files.Status != "" {
		if err := writeStatusDoc(c.files.Status, st); err != nil {
			s.logf("campaign %s: status doc: %v", c.id, err)
		}
	}
}

// writeStatusDoc atomically replaces a campaign's status document
// (temp file + rename), so readers never observe a torn write.
func writeStatusDoc(path string, st CampaignStatus) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ---- scheduler -----------------------------------------------------

// acquire hands the worker a lease from the oldest campaign that is
// both active and under the fairness cap; if every candidate is capped
// (or capping would idle the worker), a second pass ignores the cap —
// the scheduler is work-conserving, the cap only shapes preference.
func (s *Service) acquire(workerID string) (c *serviceCampaign, lease Lease, status AcquireStatus) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, Lease{}, AcquireDraining
	}
	actives := make([]*serviceCampaign, 0, len(s.order))
	terminal := 0
	for _, id := range s.order {
		sc := s.campaigns[id]
		if sc.activeLocked() {
			actives = append(actives, sc)
		} else {
			terminal++
		}
	}
	s.mu.Unlock()

	if len(actives) == 0 {
		if !s.submitMode && terminal > 0 {
			return nil, Lease{}, AcquireDone
		}
		// Submit mode: the queue is empty *right now*, but new campaigns
		// may arrive any moment — park the request.
		return nil, Lease{}, AcquireEmpty
	}
	// Pass 1: oldest-first, honoring the fairness cap.
	for _, sc := range actives {
		_, leased, _ := sc.table.Stats()
		if leased >= s.opts.FairnessCap {
			continue
		}
		if l, st := sc.table.Acquire(workerID); st == AcquireGranted {
			return sc, l, AcquireGranted
		}
	}
	// Pass 2: ignore the cap rather than idle the worker.
	for _, sc := range actives {
		if l, st := sc.table.Acquire(workerID); st == AcquireGranted {
			return sc, l, AcquireGranted
		}
	}
	return nil, Lease{}, AcquireEmpty
}

// acquireWait is acquire as a long poll: an empty answer parks the
// request until a state change lets acquire answer otherwise, the client
// goes away, or the bound — TTL/2, capped by maxLeaseWait — elapses.
func (s *Service) acquireWait(ctx context.Context, workerID string) (*serviceCampaign, Lease, AcquireStatus) {
	var bound <-chan time.Time
	for {
		// Read the wake channel before acquiring, so a state change
		// between the two is not lost.
		s.mu.Lock()
		wake := s.wake
		s.mu.Unlock()
		if c, lease, status := s.acquire(workerID); status != AcquireEmpty {
			return c, lease, status
		}
		if bound == nil {
			timer := time.NewTimer(min(s.opts.LeaseTTL/2, maxLeaseWait))
			start := time.Now()
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
			return nil, Lease{}, AcquireEmpty
		case <-bound:
			return nil, Lease{}, AcquireEmpty
		}
	}
}

// wakeLocked releases every parked lease request to re-run acquire;
// Service.mu held.
func (s *Service) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// ---- campaign control ----------------------------------------------

// Cancel stops a campaign: nothing new is granted for it, its workers
// are told to abandon their leases on the next renew, and any late
// completion is rejected idempotently with stale:true. Already-merged
// records stay durable. Cancelling a terminal campaign reports ok=false
// with its unchanged state.
func (s *Service) Cancel(id string) (CancelResponse, bool) {
	s.mu.Lock()
	c, ok := s.campaigns[id]
	if !ok {
		s.mu.Unlock()
		return CancelResponse{}, false
	}
	state := c.stateLocked()
	if state == StateDone || state == StateFailed || state == StateCancelled {
		s.mu.Unlock()
		return CancelResponse{OK: false, State: state}, true
	}
	c.cancelled = true
	c.table.Drain()
	s.publishLocked(c)
	s.wakeLocked()
	s.mu.Unlock()
	s.finished.Inc()
	s.logf("campaign %s cancelled", id)
	return CancelResponse{OK: true, State: StateCancelled}, true
}

// CampaignStatusByID returns one campaign's control-plane document.
func (s *Service) CampaignStatusByID(id string) (CampaignStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	if !ok {
		return CampaignStatus{}, false
	}
	return c.statusLocked(), true
}

// ListCampaigns returns every campaign's status in submission order.
func (s *Service) ListCampaigns() []CampaignStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CampaignStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.campaigns[id].statusLocked())
	}
	return out
}

// Results returns a campaign's merged-output snapshot. The pointer was
// swapped in whole at the last frontier release, so the view is always
// a grid-ordered durable prefix — never a peek at worker state.
func (s *Service) Results(id string) (*CampaignResultsResponse, bool) {
	s.mu.Lock()
	c, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return c.snapshot.Load(), true
}

// failCampaign records a campaign-fatal error. Without a service
// directory the campaign's failure is the service's failure, so Wait
// surfaces it (a failure-budget abort included); in submit mode the
// service keeps serving the other campaigns.
func (s *Service) failCampaign(c *serviceCampaign, err error) {
	s.mu.Lock()
	fresh := c.failedErr == nil && !c.cancelled
	if fresh {
		c.failedErr = err
		s.publishLocked(c)
		s.wakeLocked()
	}
	s.mu.Unlock()
	c.table.Drain()
	if fresh {
		s.finished.Inc()
		s.logf("campaign %s failed: %v", c.id, err)
	}
	if !s.submitMode {
		s.fail(err)
	}
}

// fail records a service-fatal error and stops the run.
func (s *Service) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.draining = true
	s.mu.Unlock()
	s.finish(err)
}

// finish flushes every campaign's sinks and releases Wait exactly once.
func (s *Service) finish(err error) {
	s.doneOnce.Do(func() {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		for _, id := range s.order {
			c := s.campaigns[id]
			if c.cw != nil {
				c.cw.Flush()
				if ferr := c.cw.Error(); ferr != nil && s.err == nil {
					s.err = fmt.Errorf("fabric: results flush: %w", ferr)
				}
			}
			c.closeSinks()
		}
		s.wakeLocked()
		s.mu.Unlock()
		close(s.doneCh)
	})
}

// Drain switches the service to draining mode: outstanding leases may
// finish and report, nothing new is granted or accepted for submission,
// and Wait returns once every table is idle. Queued and half-done
// campaigns stay resumable — their configs and merged prefixes are on
// disk.
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	for _, c := range s.campaigns {
		c.table.Drain()
	}
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

// allTerminal reports whether every campaign reached a terminal state
// (and at least one campaign exists).
func (s *Service) allTerminal() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) == 0 {
		return false
	}
	for _, id := range s.order {
		if s.campaigns[id].activeLocked() {
			return false
		}
	}
	return true
}

// idle reports whether no active campaign holds a leased chunk — the
// drain exit condition. Cancelled/failed campaigns are skipped: their
// abandoned leases expire on their own and nothing will merge them.
func (s *Service) idle() bool {
	s.mu.Lock()
	tables := make([]*LeaseTable, 0, len(s.order))
	for _, id := range s.order {
		c := s.campaigns[id]
		if !c.cancelled && c.failedErr == nil {
			tables = append(tables, c.table)
		}
	}
	s.mu.Unlock()
	for _, t := range tables {
		if !t.Idle() {
			return false
		}
	}
	return true
}

// completionError distinguishes "everything complete" (nil) from
// "drained early" at shutdown; a recorded fatal error wins, then — without
// a service directory — the first failed campaign's error.
func (s *Service) completionError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	merged, total, incomplete := 0, 0, 0
	var firstFailed error
	for _, id := range s.order {
		c := s.campaigns[id]
		merged += c.merged
		total += c.total
		if c.failedErr != nil && firstFailed == nil {
			firstFailed = c.failedErr
		}
		if c.activeLocked() {
			incomplete++
		}
	}
	if !s.submitMode && firstFailed != nil {
		return firstFailed
	}
	if incomplete > 0 {
		return fmt.Errorf("%w: %d/%d grid points merged", ErrDrained, merged, total)
	}
	return nil
}

// Wait blocks until every campaign is terminal (without a service
// directory), a fatal error occurs, or — after ctx is canceled — the
// drain finishes. It owns the liveness sweeper.
func (s *Service) Wait(ctx context.Context) error {
	sweep := time.NewTicker(s.sweepInterval())
	defer sweep.Stop()
	// A service constructed over already-complete campaigns (a resume of
	// a finished grid) has nothing to wait for.
	if !s.submitMode && s.allTerminal() {
		s.finish(s.completionError())
	}
	ctxDone := ctx.Done()
	for {
		select {
		case <-s.doneCh:
			return s.runError()
		case <-ctxDone:
			ctxDone = nil // handled; don't spin on the closed channel
			s.Drain()
			if s.idle() {
				s.finish(s.completionError())
			}
		case <-sweep.C:
			s.sweep()
			if !s.submitMode && s.allTerminal() {
				s.finish(s.completionError())
			}
			if s.drainingNow() && s.idle() {
				s.finish(s.completionError())
			}
		}
	}
}

// sweep returns every campaign's expired leases to the pool, refreshes
// the workers-live gauge and wakes parked lease requests. It wakes them
// even when it expired nothing, because a late renew or completion may
// have expired a lease on its own since the last tick.
func (s *Service) sweep() {
	expired := 0
	s.mu.Lock()
	tables := make([]*LeaseTable, 0, len(s.order))
	for _, id := range s.order {
		tables = append(tables, s.campaigns[id].table)
	}
	s.mu.Unlock()
	for _, t := range tables {
		expired += t.Sweep()
	}
	if expired > 0 {
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
	c, lease, status := s.acquireWait(r.Context(), req.WorkerID)
	switch status {
	case AcquireGranted:
		s.mu.Lock()
		if !c.started {
			c.started = true
			s.publishLocked(c)
		}
		s.mu.Unlock()
		resp := LeaseResponse{
			Granted: true, Campaign: c.id,
			Chunk: lease.Chunk, From: lease.From, To: lease.To, Gen: lease.Gen,
		}
		known := false
		for _, id := range req.Known {
			if id == c.id {
				known = true
				break
			}
		}
		if !known {
			resp.Config = json.RawMessage(c.configJSON)
		}
		s.logf("leased %s chunk %d [%d,%d) gen %d to %s", c.id, lease.Chunk, lease.From, lease.To, lease.Gen, req.WorkerID)
		writeJSON(w, resp)
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

// campaignByID resolves a campaign reference from a worker message.
func (s *Service) campaignByID(id string) (*serviceCampaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
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
	c, ok := s.campaignByID(req.Campaign)
	if !ok {
		http.Error(w, fmt.Sprintf("fabric: unknown campaign %q", req.Campaign), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	dead := c.cancelled || c.failedErr != nil
	s.mu.Unlock()
	if dead {
		// Cancelled/failed campaign: the range will never be merged.
		writeJSON(w, ReportResponse{OK: false, Cancel: true})
		return
	}
	if err := c.table.Renew(req.WorkerID, req.Chunk, req.Gen); err != nil {
		// The lease is gone; tell the worker to abandon the range.
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
	c, ok := s.campaignByID(req.Campaign)
	if !ok {
		http.Error(w, fmt.Sprintf("fabric: unknown campaign %q", req.Campaign), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	dead := c.cancelled || c.failedErr != nil
	s.mu.Unlock()
	if dead {
		// The campaign was cancelled (or failed) while the worker ran:
		// reject the late completion idempotently — same contract as a
		// superseded generation.
		s.logf("rejected completion of cancelled %s chunk %d from %s", c.id, req.Chunk, req.WorkerID)
		writeJSON(w, CompleteResponse{OK: false, Stale: true})
		return
	}

	from, to, err := c.table.Bounds(req.Chunk)
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
	if err := c.table.Complete(req.WorkerID, req.Chunk, req.Gen); err != nil {
		// Late completion from a presumed-dead worker: the range was (or
		// will be) re-executed elsewhere. Discard idempotently.
		s.logf("rejected stale completion of %s chunk %d gen %d from %s", c.id, req.Chunk, req.Gen, req.WorkerID)
		writeJSON(w, CompleteResponse{OK: false, Stale: true})
		return
	}

	s.mu.Lock()
	c.buffered[req.Chunk] = chunkPayload{rows: req.Rows, failures: req.Failures}
	c.failures += len(req.Failures)
	overBudget := c.maxFailures >= 0 && c.failures > c.maxFailures
	werr := s.releaseLocked(c)
	campaignDone := c.table.Done()
	if werr == nil {
		s.publishLocked(c)
	}
	s.mu.Unlock()
	if werr != nil {
		s.failCampaign(c, werr)
		http.Error(w, werr.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, CompleteResponse{OK: true})
	if overBudget {
		// The triggering records are already merged and durable; stop
		// granting this campaign's work and surface the budget error,
		// mirroring the runner's ErrFailureBudget semantics.
		s.failCampaign(c, fmt.Errorf("%w: %d persistent failure(s) over budget %d",
			runner.ErrFailureBudget, c.failures, c.maxFailures))
		return
	}
	if campaignDone {
		s.finished.Inc()
		s.logf("campaign %s complete: %d grid points merged (%d quarantined)", c.id, c.merged, c.failures)
		if !s.submitMode && s.allTerminal() {
			s.finish(s.completionError())
		}
	}
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	cutoff := s.now().Add(-s.opts.LeaseTTL)
	s.mu.Lock()
	st := StatusResponse{Version: ProtocolVersion, Draining: s.draining}
	for _, id := range s.order {
		c := s.campaigns[id]
		st.Total += c.total
		st.Merged += c.merged
		st.Chunks += c.table.NumChunks()
		st.ChunksDone += c.table.DoneChunks()
		st.Campaigns = append(st.Campaigns, c.statusLocked())
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
	s.mu.Unlock()
	writeJSON(w, st)
}

// ---- campaigns control-plane handlers ------------------------------

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeSubmitRequest(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !s.submitMode {
		http.Error(w, "fabric: campaign submission requires a service directory (start serve with -dir)", http.StatusForbidden)
		return
	}
	resp, err := s.Submit(req.Name, req.Config)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, resp)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, CampaignListResponse{Version: ProtocolVersion, Campaigns: s.ListCampaigns()})
}

func (s *Service) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	st, ok := s.CampaignStatusByID(id)
	if !ok {
		http.Error(w, fmt.Sprintf("fabric: unknown campaign %q", id), http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeCancelRequest(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, found := s.Cancel(req.CampaignID)
	if !found {
		http.Error(w, fmt.Sprintf("fabric: unknown campaign %q", req.CampaignID), http.StatusNotFound)
		return
	}
	writeJSON(w, resp)
}

func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	snap, ok := s.Results(id)
	if !ok {
		http.Error(w, fmt.Sprintf("fabric: unknown campaign %q", id), http.StatusNotFound)
		return
	}
	writeJSON(w, snap)
}

// ---- merge frontier ------------------------------------------------

// releaseLocked writes every buffered chunk at the campaign's frontier
// in chunk order: result rows to the CSV writer, failure records to the
// quarantine writer, both already in their exact sequential encodings.
// The caller holds s.mu.
func (s *Service) releaseLocked(c *serviceCampaign) error {
	for {
		payload, ok := c.buffered[c.nextChunk]
		if !ok {
			break
		}
		delete(c.buffered, c.nextChunk)
		// Rows and failures each arrive sorted; interleave by expNr so
		// the quarantine stream is globally grid-ordered like the CSV.
		ri, fi := 0, 0
		for ri < len(payload.rows) || fi < len(payload.failures) {
			if fi >= len(payload.failures) || (ri < len(payload.rows) && payload.rows[ri].Nr < payload.failures[fi].Nr) {
				if c.headerPending {
					if err := c.writeHeader(); err != nil {
						return err
					}
					c.headerPending = false
				}
				if err := c.cw.Write(payload.rows[ri].Fields); err != nil {
					return fmt.Errorf("fabric: results write: %w", err)
				}
				c.rowsMerged.Inc()
				s.rowsMerged.Inc()
				ri++
			} else {
				rec := append(payload.failures[fi].Record, '\n')
				if c.quarantine != nil {
					if _, err := c.quarantine.Write(rec); err != nil {
						return fmt.Errorf("fabric: quarantine write: %w", err)
					}
				}
				c.memQ.Write(rec)
				c.failuresMerged.Inc()
				s.failuresMerged.Inc()
				fi++
			}
			c.merged++
		}
		c.cw.Flush()
		if err := c.cw.Error(); err != nil {
			return fmt.Errorf("fabric: results flush: %w", err)
		}
		c.nextChunk++
	}
	return nil
}

func (c *serviceCampaign) writeHeader() error {
	header := resultHeader(c.matrix)
	if err := c.cw.Write(header); err != nil {
		return fmt.Errorf("fabric: results header: %w", err)
	}
	c.cw.Flush()
	return c.cw.Error()
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
