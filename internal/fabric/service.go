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

// DefaultFairnessCap bounds how many chunks one campaign may hold leased
// while other active campaigns still have pending work. The scheduler is
// work-conserving: the cap shapes preference, it never idles a worker.
const DefaultFairnessCap = 4

// ServiceOptions configure a multi-campaign fabric Service.
type ServiceOptions struct {
	// Dir, when set, enables submit mode: campaigns arrive over the
	// /v1/campaigns API and every campaign's artifacts live side by side
	// in this directory under the runner.CampaignFilesIn layout. When
	// empty the service only runs campaigns added programmatically (the
	// single-campaign Coordinator wrapper).
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
	// FinishWhenDone makes Wait return once every submitted campaign is
	// terminal — the single-campaign Coordinator behavior. Without it
	// the service runs until drained, accepting submissions forever.
	FinishWhenDone bool
	// Metrics receives the fabric counters and gauges; nil disables.
	Metrics *obs.Registry
	// Now is the clock (nil = time.Now); injectable for expiry tests.
	Now func() time.Time
	// Logf, when non-nil, receives one line per notable event.
	Logf func(format string, args ...any)
}

// campaignSpec is the internal submission record: everything addCampaign
// needs, whether the campaign came over the wire (submit mode derives
// the grid from the config) or from the Coordinator wrapper (explicit
// dims and external writers).
type campaignSpec struct {
	id, name     string
	configJSON   []byte
	base, total  int
	matrix       bool
	maxFailures  int
	resumePrefix int
	noHeader     bool
	// results/quarantine, when non-nil, are the wrapper's external
	// writers; otherwise submit mode opens the campaign's own files.
	results    io.Writer
	quarantine io.Writer
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
	files       runner.CampaignFiles // zero value in wrapper mode
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

	rowsMerged     *obs.Counter // labeled per campaign in submit mode
	failuresMerged *obs.Counter
}

// Service is the multi-campaign fabric coordinator: a queue of campaign
// grids, each with its own namespaced lease table, generation counters,
// release frontier and output files, drained oldest-first by a shared
// worker fleet under a per-campaign fairness cap. Create with
// NewService, mount Handler, submit campaigns (over the API in submit
// mode, or via the Coordinator wrapper), then Wait.
type Service struct {
	opts       ServiceOptions
	now        func() time.Time
	mux        *http.ServeMux
	submitMode bool

	mu        sync.Mutex
	campaigns map[string]*serviceCampaign
	order     []string // campaign IDs in submission order
	workers   map[string]*workerInfo
	nextWID   int
	nextSeq   int
	draining  bool
	err       error
	doneCh    chan struct{}
	doneOnce  sync.Once

	rowsMerged     *obs.Counter
	failuresMerged *obs.Counter
	workersLive    *obs.Gauge
	workersSeen    *obs.Counter
	submitted      *obs.Counter
	finished       *obs.Counter
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
		rowsMerged:     opts.Metrics.Counter("fabric.rows_merged"),
		failuresMerged: opts.Metrics.Counter("fabric.failures_merged"),
		workersLive:    opts.Metrics.Gauge("fabric.workers_live"),
		workersSeen:    opts.Metrics.Counter("fabric.workers_registered"),
		submitted:      opts.Metrics.Counter("fabric.campaigns_submitted"),
		finished:       opts.Metrics.Counter("fabric.campaigns_finished"),
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

// gridDims derives the grid geometry and failure budget from a raw
// campaign/matrix config file — the submit path's counterpart to what
// `comfase serve` computes for its single grid.
func gridDims(cfgJSON []byte) (base, total int, matrix bool, maxFailures int, err error) {
	parsed, err := config.Parse(bytes.NewReader(cfgJSON))
	if err != nil {
		return 0, 0, false, 0, err
	}
	cells, matrix := parsed.Grid()
	base, total = runner.GridSpan(cells)
	if total == 0 {
		return 0, 0, false, 0, errors.New("fabric: the config describes an empty campaign grid")
	}
	return base, total, matrix, parsed.Runtime.MaxFailures, nil
}

// Submit enqueues a new campaign from its raw config file, persists the
// config under the service directory, and returns the assigned ID. Only
// valid in submit mode.
func (s *Service) Submit(name string, cfgJSON []byte) (SubmitResponse, error) {
	if !s.submitMode {
		return SubmitResponse{}, errors.New("fabric: campaign submission requires a service directory (start serve with -dir)")
	}
	base, total, matrix, budget, err := gridDims(cfgJSON)
	if err != nil {
		return SubmitResponse{}, fmt.Errorf("fabric: submitted config: %w", err)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return SubmitResponse{}, errors.New("fabric: service is draining; submissions closed")
	}
	s.nextSeq++
	id := "c" + strconv.Itoa(s.nextSeq)
	s.mu.Unlock()
	files := runner.CampaignFilesIn(s.opts.Dir, id)
	if err := os.WriteFile(files.Config, cfgJSON, 0o644); err != nil {
		return SubmitResponse{}, fmt.Errorf("fabric: persisting campaign config: %w", err)
	}
	c, err := s.addCampaign(campaignSpec{
		id: id, name: name, configJSON: cfgJSON,
		base: base, total: total, matrix: matrix, maxFailures: budget,
	})
	if err != nil {
		return SubmitResponse{}, err
	}
	return SubmitResponse{CampaignID: c.id, Base: c.base, Total: c.total, Position: c.seq}, nil
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
		base, total, matrix, budget, err := gridDims(cfgJSON)
		if err != nil {
			return fmt.Errorf("fabric: campaign %s config %s: %w", files.ID, files.Config, err)
		}
		prefix, err := runner.ReadMergedPrefix(files.Results, files.Quarantine, base, total)
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
		if _, err := s.addCampaign(campaignSpec{
			id: files.ID, name: name, configJSON: cfgJSON,
			base: base, total: total, matrix: matrix, maxFailures: budget,
			resumePrefix: prefix,
		}); err != nil {
			return err
		}
		s.logf("resumed campaign %s: %d/%d grid points already merged", files.ID, prefix, total)
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

// addCampaign builds the campaign's lease table, opens its sinks, and
// registers it with the scheduler.
func (s *Service) addCampaign(spec campaignSpec) (*serviceCampaign, error) {
	if spec.resumePrefix < 0 || spec.resumePrefix > spec.total {
		return nil, fmt.Errorf("fabric: resume prefix %d outside grid of %d", spec.resumePrefix, spec.total)
	}
	var labels []string
	if s.submitMode {
		labels = []string{"campaign", spec.id}
	}
	table, err := NewLeaseTable(spec.base, spec.total, s.opts.LeaseSize, s.opts.LeaseTTL, s.now, s.opts.Metrics, labels...)
	if err != nil {
		return nil, err
	}
	c := &serviceCampaign{
		id: spec.id, name: spec.name,
		base: spec.base, total: spec.total,
		matrix: spec.matrix, maxFailures: spec.maxFailures,
		configJSON: spec.configJSON,
		table:      table,
		quarantine: spec.quarantine,
		mem:        &bytes.Buffer{},
		memQ:       &bytes.Buffer{},
		buffered:   make(map[int]chunkPayload),
	}
	if s.submitMode {
		c.files = runner.CampaignFilesIn(s.opts.Dir, spec.id)
		c.rowsMerged = s.opts.Metrics.Counter(obs.Label("fabric.campaign.rows_merged", "campaign", spec.id))
		c.failuresMerged = s.opts.Metrics.Counter(obs.Label("fabric.campaign.failures_merged", "campaign", spec.id))
		if err := s.openCampaignSinks(c, spec.resumePrefix > 0); err != nil {
			return nil, err
		}
	} else {
		c.rowsMerged = s.rowsMerged
		c.failuresMerged = s.failuresMerged
		mw := io.MultiWriter(spec.results, c.mem)
		c.cw = csv.NewWriter(mw)
		c.headerPending = !spec.noHeader
	}
	if spec.resumePrefix > 0 {
		table.MarkDonePrefix(spec.base + spec.resumePrefix)
		for c.nextChunk < table.NumChunks() {
			_, to, _ := table.Bounds(c.nextChunk)
			if to > spec.base+spec.resumePrefix {
				break
			}
			c.nextChunk++
		}
		c.merged = spec.resumePrefix
	}

	s.mu.Lock()
	if _, dup := s.campaigns[spec.id]; dup {
		s.mu.Unlock()
		c.closeSinks()
		return nil, fmt.Errorf("fabric: duplicate campaign ID %q", spec.id)
	}
	c.seq = len(s.order) + 1
	s.campaigns[spec.id] = c
	s.order = append(s.order, spec.id)
	s.publishLocked(c)
	s.mu.Unlock()
	s.submitted.Inc()
	s.logf("campaign %s submitted: grid [%d,%d), %d chunk(s)", spec.id, spec.base, spec.base+spec.total, table.NumChunks())
	return c, nil
}

// openCampaignSinks opens (or, resuming, re-opens in append mode) a
// submit-mode campaign's results and quarantine files, loading the
// already-merged bytes into the in-memory mirrors so the results
// endpoint sees the full stream.
func (s *Service) openCampaignSinks(c *serviceCampaign, resumed bool) error {
	mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	appendMode := false
	if resumed {
		if st, err := os.Stat(c.files.Results); err == nil && st.Size() > 0 {
			appendMode = true
		}
	}
	if appendMode {
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
	qf, err := os.OpenFile(c.files.Quarantine, mode, 0o644)
	if err != nil {
		rf.Close()
		return fmt.Errorf("fabric: campaign %s quarantine: %w", c.id, err)
	}
	c.closers = append(c.closers, rf, qf)
	c.cw = csv.NewWriter(io.MultiWriter(rf, c.mem))
	c.quarantine = qf
	c.headerPending = !appendMode
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
// in submit mode, its on-disk status document. Service.mu held. The
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
	if s.submitMode {
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
	finishWhenDone := s.opts.FinishWhenDone
	s.mu.Unlock()

	if len(actives) == 0 {
		if finishWhenDone && terminal > 0 {
			return nil, Lease{}, AcquireDone
		}
		// Submit mode: the queue is empty *right now*, but new campaigns
		// may arrive any moment — keep the fleet polling.
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

// campaignMerged reports a campaign's merged/failure counts (wrapper
// accessors).
func (s *Service) campaignCounts(id string) (merged, failures int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.campaigns[id]; ok {
		return c.merged, c.failures
	}
	return 0, 0
}

// failCampaign records a campaign-fatal error. In FinishWhenDone mode
// (the single-campaign wrapper) the campaign's failure is the service's
// failure, preserving the Coordinator's semantics; in submit mode the
// service keeps serving the other campaigns.
func (s *Service) failCampaign(c *serviceCampaign, err error) {
	s.mu.Lock()
	fresh := c.failedErr == nil && !c.cancelled
	if fresh {
		c.failedErr = err
		s.publishLocked(c)
	}
	s.mu.Unlock()
	c.table.Drain()
	if fresh {
		s.finished.Inc()
		s.logf("campaign %s failed: %v", c.id, err)
	}
	if s.opts.FinishWhenDone {
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
// "drained early" at shutdown; a recorded fatal error wins, then the
// first failed campaign's error in FinishWhenDone mode.
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
	if s.opts.FinishWhenDone && firstFailed != nil {
		return firstFailed
	}
	if incomplete > 0 {
		return fmt.Errorf("%w: %d/%d grid points merged", ErrDrained, merged, total)
	}
	return nil
}

// Wait blocks until the run completes (FinishWhenDone), a fatal error
// occurs, or — after ctx is canceled — the drain finishes. It owns the
// liveness sweeper.
func (s *Service) Wait(ctx context.Context) error {
	sweep := time.NewTicker(s.sweepInterval())
	defer sweep.Stop()
	// A service constructed over already-complete campaigns (a resume of
	// a finished grid) has nothing to wait for.
	if s.opts.FinishWhenDone && s.allTerminal() {
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
			if s.opts.FinishWhenDone && s.allTerminal() {
				s.finish(s.completionError())
			}
			if s.drainingNow() && s.idle() {
				s.finish(s.completionError())
			}
		}
	}
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

// markNotified records that a worker has been handed an end-of-run
// response and will not call back.
func (s *Service) markNotified(id string) {
	s.mu.Lock()
	if w, ok := s.workers[id]; ok {
		w.notifiedEnd = true
	}
	s.mu.Unlock()
}

// Linger blocks until every live worker has received an end-of-run
// response, or one lease TTL elapses — whichever comes first. Call after
// Wait, before tearing down the HTTP server.
func (s *Service) Linger() {
	deadline := time.Now().Add(s.opts.LeaseTTL)
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	for time.Now().Before(deadline) {
		cutoff := s.now().Add(-s.opts.LeaseTTL)
		pending := 0
		s.mu.Lock()
		for _, w := range s.workers {
			if !w.notifiedEnd && w.lastSeen.After(cutoff) {
				pending++
			}
		}
		s.mu.Unlock()
		if pending == 0 {
			return
		}
		<-ticker.C
	}
}

// ---- worker data-plane handlers ------------------------------------

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
	c, lease, status := s.acquire(req.WorkerID)
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
	default: // AcquireEmpty: leases may expire, campaigns may arrive.
		writeJSON(w, LeaseResponse{RetryMS: (s.opts.LeaseTTL / 2).Milliseconds()})
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
	draining := s.drainingNow()
	s.mu.Lock()
	dead := c.cancelled || c.failedErr != nil
	s.mu.Unlock()
	if dead {
		// Cancelled/failed campaign: the range will never be merged.
		writeJSON(w, ReportResponse{OK: false, Cancel: true, Draining: draining})
		return
	}
	if err := c.table.Renew(req.WorkerID, req.Chunk, req.Gen); err != nil {
		// The lease is gone; tell the worker to abandon the range.
		writeJSON(w, ReportResponse{OK: false, Cancel: true, Draining: draining})
		return
	}
	writeJSON(w, ReportResponse{OK: true, Draining: draining})
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
		writeJSON(w, CompleteResponse{OK: false, Stale: true, Done: s.finishedDone()})
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
		done := s.finishedDone()
		if done {
			s.markNotified(req.WorkerID)
		}
		writeJSON(w, CompleteResponse{OK: false, Stale: true, Done: done})
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
	done := s.finishedDone()
	if done {
		s.markNotified(req.WorkerID)
	}
	writeJSON(w, CompleteResponse{OK: true, Done: done})
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
		if s.opts.FinishWhenDone && s.allTerminal() {
			s.finish(s.completionError())
		}
	}
}

// finishedDone reports whether the whole service is finishing: every
// campaign terminal AND the run configured to end then. In submit mode
// the service keeps running (new submissions may arrive), so workers are
// never told Done — they exit on Draining at shutdown instead.
func (s *Service) finishedDone() bool {
	return s.opts.FinishWhenDone && s.allTerminal()
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
				if s.submitMode {
					s.rowsMerged.Inc() // keep the aggregate counter aggregate
				}
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
				if s.submitMode {
					s.failuresMerged.Inc()
				}
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
