// Package fabric is the distributed campaign runtime of the ComFASE
// reproduction: a coordinator service (`comfase serve`) that owns one or
// more expanded campaign/matrix grids and leases contiguous expNr ranges
// to worker processes (`comfase work`) over a small HTTP+JSON protocol,
// plus the failure machinery that makes the distribution trustworthy —
// lease TTLs renewed from the workers' obs heartbeat snapshots,
// dead-worker detection with automatic re-lease of unfinished ranges, a
// per-lease generation counter that rejects late results from a
// presumed-dead worker idempotently, bounded worker-side retry with
// jittered exponential backoff for coordinator blips, and a draining
// mode that finishes what is leased while leasing nothing new.
//
// Since the multi-campaign growth, the service absorbs queued campaign
// submissions over a /v1/campaigns API: every lease table, generation
// counter, release frontier and resume path is namespaced by campaign
// ID, and a shared worker fleet drains the queue of grids oldest-first
// under a per-campaign fairness cap — no coordinator restarts between
// campaigns.
//
// Each campaign streams its merged rows in grid order through its own
// release frontier, so the final results CSV (and the merged
// quarantine.jsonl) is byte-identical to a sequential single-process run
// even when workers crash mid-range and their leases are re-executed
// elsewhere.
package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"comfase/internal/obs"
)

// ProtocolVersion is the fabric wire-protocol version. Register fails
// when coordinator and worker disagree, so a fleet never silently mixes
// incompatible binaries. v2 namespaced every lease by campaign ID and
// moved config delivery from registration to the first lease grant of
// each campaign. v3 made lease requests long polls: an empty answer means
// "ask again now", not "sleep". The lease answer is now the only
// end-of-run signal, so v3 dropped the completion's done flag and the
// report response's unread drain flag.
const ProtocolVersion = 3

// Paths of the coordinator's HTTP endpoints. The /v1/campaigns family is
// the control plane (submissions, status, cancellation, results); the
// rest is the worker data plane.
const (
	PathRegister = "/v1/register"
	PathLease    = "/v1/lease"
	PathReport   = "/v1/report"
	PathComplete = "/v1/complete"
	PathStatus   = "/v1/status"

	PathCampaigns       = "/v1/campaigns"
	PathCampaignStatus  = "/v1/campaigns/status"
	PathCampaignCancel  = "/v1/campaigns/cancel"
	PathCampaignResults = "/v1/campaigns/results"
)

// RegisterRequest introduces a worker to the coordinator. Host and PID
// are diagnostic only; identity is the coordinator-assigned WorkerID in
// the response.
type RegisterRequest struct {
	Host string `json:"host,omitempty"`
	PID  int    `json:"pid,omitempty"`
}

// RegisterResponse hands the worker its identity and the lease TTL it
// must renew within. Campaign configs are NOT shipped here: in a
// multi-campaign service the work a worker will see is unknowable at
// registration time, so each campaign's config arrives with that
// campaign's first lease grant instead.
type RegisterResponse struct {
	Version  int    `json:"version"`
	WorkerID string `json:"workerID"`
	// LeaseTTLMS is the lease time-to-live in milliseconds. A worker
	// that does not report within it is presumed dead and its range is
	// re-leased.
	LeaseTTLMS int64 `json:"leaseTTLMS"`
}

// LeaseRequest asks for the next unleased range of any active campaign.
// Known lists the campaign IDs the worker already holds an executor for,
// so the coordinator ships a campaign's config only on the worker's
// first encounter with it.
type LeaseRequest struct {
	WorkerID string   `json:"workerID"`
	Known    []string `json:"known,omitempty"`
}

// LeaseResponse grants a range, or explains why none was granted. An
// ungranted request parks on the coordinator until a range comes free or
// the run ends, so a response with none of Granted, Done and Draining set
// means only that the park bound elapsed: ask again at once.
type LeaseResponse struct {
	// Granted reports whether Campaign/Chunk/From/To/Gen carry a lease.
	Granted bool `json:"granted"`
	// Campaign is the campaign ID the lease belongs to; echo it on
	// report/complete — chunk indices and generations are namespaced
	// per campaign.
	Campaign string `json:"campaign,omitempty"`
	// Chunk is the campaign's range index; echo it on report/complete.
	Chunk int `json:"chunk"`
	// From/To is the half-open expNr interval [From, To) to execute.
	From int `json:"from"`
	To   int `json:"to"`
	// Gen is the lease generation. A range re-leased after a presumed
	// worker death carries a higher generation; reports with a stale
	// generation are rejected.
	Gen uint64 `json:"gen"`
	// Config is the campaign's raw config JSON, present only when the
	// request's Known list did not include Campaign. The worker parses
	// it with the ordinary config loader and caches the executor.
	Config json.RawMessage `json:"config,omitempty"`
	// Done: every campaign is complete and the coordinator is about to
	// shut down — the worker should exit cleanly. It is the only way a
	// worker learns the run is over; the coordinator keeps its socket
	// open until every live worker has been told.
	Done bool `json:"done"`
	// Draining: the coordinator is shutting down and leases nothing new.
	Draining bool `json:"draining"`
}

// ReportRequest is the combined progress report + lease renewal + worker
// heartbeat: receiving it extends the lease TTL, and the embedded obs
// snapshot (the same document the worker's heartbeat file would carry)
// gives the coordinator per-worker liveness and throughput data.
type ReportRequest struct {
	WorkerID string `json:"workerID"`
	Campaign string `json:"campaign"`
	Chunk    int    `json:"chunk"`
	Gen      uint64 `json:"gen"`
	// Done is how many grid points of the leased range have finished.
	Done int `json:"done,omitempty"`
	// Snapshot is the worker's obs registry capture.
	Snapshot *obs.Snapshot `json:"snapshot,omitempty"`
}

// ReportResponse acknowledges a report.
type ReportResponse struct {
	OK bool `json:"ok"`
	// Cancel tells the worker its lease is gone (expired and re-leased,
	// the range completed elsewhere, or the campaign was cancelled):
	// abandon the work, ask anew.
	Cancel bool `json:"cancel,omitempty"`
}

// ResultRow is one classified experiment in wire form: the expNr plus
// the exact CSV record fields the sequential run would have written.
// Shipping the encoded fields (rather than a re-parsed struct) is what
// lets the coordinator guarantee byte-identical merged output.
type ResultRow struct {
	Nr     int      `json:"nr"`
	Fields []string `json:"fields"`
}

// FailureRow is one quarantined experiment in wire form: the expNr plus
// the exact JSON line the sequential quarantine sink would have written.
type FailureRow struct {
	Nr     int             `json:"nr"`
	Record json.RawMessage `json:"record"`
}

// CompleteRequest reports a fully executed range: every expNr in
// [From, To) appears exactly once, either as a result row or as a
// quarantine record.
type CompleteRequest struct {
	WorkerID string       `json:"workerID"`
	Campaign string       `json:"campaign"`
	Chunk    int          `json:"chunk"`
	Gen      uint64       `json:"gen"`
	Rows     []ResultRow  `json:"rows"`
	Failures []FailureRow `json:"failures,omitempty"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	OK bool `json:"ok"`
	// Stale: the lease generation was superseded (the range was — or is
	// being — re-executed elsewhere, or the campaign was cancelled); the
	// payload was discarded. This is the idempotent rejection of a late
	// report from a presumed-dead worker: not an error, just "your work
	// was no longer wanted".
	Stale bool `json:"stale,omitempty"`
}

// SubmitRequest enqueues a new campaign on a submit-mode coordinator.
type SubmitRequest struct {
	// Name is an optional operator-facing label; the coordinator-assigned
	// campaign ID in the response is the identity.
	Name string `json:"name,omitempty"`
	// Config is the raw campaign/matrix config file, exactly what
	// `comfase campaign -config` would read.
	Config json.RawMessage `json:"config"`
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	// CampaignID names the campaign in every later status/cancel/results
	// call and in the per-campaign file layout under the service dir.
	CampaignID string `json:"campaignID"`
	// Base is the first expNr of the campaign's grid; Total the number
	// of points.
	Base  int `json:"base"`
	Total int `json:"total"`
	// Position is the campaign's place in the submission order (1-based):
	// the scheduler drains campaigns oldest-first.
	Position int `json:"position"`
}

// CancelRequest cancels a campaign: outstanding leases are rejected
// idempotently with stale:true when they complete, and nothing new is
// granted for it.
type CancelRequest struct {
	CampaignID string `json:"campaignID"`
}

// CancelResponse reports the campaign's state after the cancel.
type CancelResponse struct {
	OK    bool   `json:"ok"`
	State string `json:"state"`
}

// CampaignStatus is one campaign's control-plane view — also the schema
// of the per-campaign `<id>.status.json` documents a submit-mode service
// maintains on disk.
type CampaignStatus struct {
	ID         string `json:"id"`
	Name       string `json:"name,omitempty"`
	State      string `json:"state"`
	Base       int    `json:"base"`
	Total      int    `json:"total"`
	Merged     int    `json:"merged"`
	Failures   int    `json:"failures"`
	Chunks     int    `json:"chunks"`
	ChunksDone int    `json:"chunksDone"`
	// SubmittedSeq is the submission order (1-based); the scheduler
	// serves lower sequences first.
	SubmittedSeq int `json:"submittedSeq"`
	// Error carries the campaign's fatal error (budget exceeded, sink
	// I/O) when State is "failed".
	Error string `json:"error,omitempty"`
}

// CampaignListResponse is the GET /v1/campaigns document.
type CampaignListResponse struct {
	Version   int              `json:"version"`
	Campaigns []CampaignStatus `json:"campaigns"`
}

// CampaignResultsResponse is the GET /v1/campaigns/results document: the
// campaign's merged output so far. It is rendered from an atomically
// swapped release-frontier snapshot — never from worker state — so the
// CSV is always a grid-ordered prefix of the final file, exactly what is
// durable on disk.
type CampaignResultsResponse struct {
	CampaignID string `json:"campaignID"`
	State      string `json:"state"`
	Merged     int    `json:"merged"`
	Total      int    `json:"total"`
	// CSV is the merged results stream (header + rows in expNr order).
	CSV string `json:"csv"`
	// Quarantine is the merged quarantine JSON-lines stream.
	Quarantine string `json:"quarantine,omitempty"`
}

// StatusResponse is the GET /v1/status document — a human/tooling view
// of the whole service, separate from the obs snapshot. Grid-point and
// chunk counts aggregate across campaigns; per-campaign detail lives in
// the Campaigns list (and the /v1/campaigns endpoints).
type StatusResponse struct {
	Version    int              `json:"version"`
	Total      int              `json:"total"`
	Merged     int              `json:"merged"` // grid points written out
	Chunks     int              `json:"chunks"`
	ChunksDone int              `json:"chunksDone"`
	Draining   bool             `json:"draining"`
	Campaigns  []CampaignStatus `json:"campaigns,omitempty"`
	Workers    []WorkerStatus   `json:"workers,omitempty"`
}

// WorkerStatus is one registered worker's liveness view.
type WorkerStatus struct {
	ID           string `json:"id"`
	Host         string `json:"host,omitempty"`
	PID          int    `json:"pid,omitempty"`
	LastSeenUnix int64  `json:"lastSeenUnix"`
	Live         bool   `json:"live"`
}

// ErrProtocol wraps every decode/validation failure of the wire
// messages, so handlers can map them to 400s with one errors.Is check.
var ErrProtocol = errors.New("fabric: protocol error")

// maxMessageBytes bounds a single protocol message. Complete payloads
// carry whole ranges of CSV rows and submit payloads carry whole config
// files, so the bound is generous; everything else is tiny.
const maxMessageBytes = 64 << 20

// maxCampaignName bounds the operator-facing campaign label.
const maxCampaignName = 128

// decodeStrict parses exactly one JSON document into dst, rejecting
// unknown fields, trailing garbage and oversized payloads. It is the
// single entry point for every protocol message, which keeps the fuzz
// surface (FuzzLeaseProtocolDecode, FuzzCampaignSubmitDecode) honest:
// malformed, truncated or field-duplicated inputs must error cleanly,
// never panic.
func decodeStrict(data []byte, dst any) error {
	if len(data) > maxMessageBytes {
		return fmt.Errorf("%w: message of %d bytes exceeds limit", ErrProtocol, len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: trailing data after message", ErrProtocol)
	}
	return nil
}

// DecodeRegisterRequest parses and validates a RegisterRequest.
func DecodeRegisterRequest(data []byte) (RegisterRequest, error) {
	var m RegisterRequest
	if err := decodeStrict(data, &m); err != nil {
		return RegisterRequest{}, err
	}
	if m.PID < 0 {
		return RegisterRequest{}, fmt.Errorf("%w: negative pid %d", ErrProtocol, m.PID)
	}
	return m, nil
}

// DecodeLeaseRequest parses and validates a LeaseRequest.
func DecodeLeaseRequest(data []byte) (LeaseRequest, error) {
	var m LeaseRequest
	if err := decodeStrict(data, &m); err != nil {
		return LeaseRequest{}, err
	}
	if m.WorkerID == "" {
		return LeaseRequest{}, fmt.Errorf("%w: empty workerID", ErrProtocol)
	}
	for i, id := range m.Known {
		if id == "" {
			return LeaseRequest{}, fmt.Errorf("%w: known[%d] is empty", ErrProtocol, i)
		}
	}
	return m, nil
}

// DecodeReportRequest parses and validates a ReportRequest.
func DecodeReportRequest(data []byte) (ReportRequest, error) {
	var m ReportRequest
	if err := decodeStrict(data, &m); err != nil {
		return ReportRequest{}, err
	}
	if m.WorkerID == "" {
		return ReportRequest{}, fmt.Errorf("%w: empty workerID", ErrProtocol)
	}
	if m.Campaign == "" {
		return ReportRequest{}, fmt.Errorf("%w: empty campaign", ErrProtocol)
	}
	if m.Chunk < 0 {
		return ReportRequest{}, fmt.Errorf("%w: negative chunk %d", ErrProtocol, m.Chunk)
	}
	if m.Done < 0 {
		return ReportRequest{}, fmt.Errorf("%w: negative done %d", ErrProtocol, m.Done)
	}
	return m, nil
}

// DecodeCompleteRequest parses and validates a CompleteRequest. Row
// ordering and range coverage are the coordinator's to check (they need
// the lease table); this layer guarantees structural sanity only.
func DecodeCompleteRequest(data []byte) (CompleteRequest, error) {
	var m CompleteRequest
	if err := decodeStrict(data, &m); err != nil {
		return CompleteRequest{}, err
	}
	if m.WorkerID == "" {
		return CompleteRequest{}, fmt.Errorf("%w: empty workerID", ErrProtocol)
	}
	if m.Campaign == "" {
		return CompleteRequest{}, fmt.Errorf("%w: empty campaign", ErrProtocol)
	}
	if m.Chunk < 0 {
		return CompleteRequest{}, fmt.Errorf("%w: negative chunk %d", ErrProtocol, m.Chunk)
	}
	for i, row := range m.Rows {
		if row.Nr < 0 {
			return CompleteRequest{}, fmt.Errorf("%w: row %d: negative expNr %d", ErrProtocol, i, row.Nr)
		}
		if len(row.Fields) == 0 {
			return CompleteRequest{}, fmt.Errorf("%w: row %d (expNr %d): no fields", ErrProtocol, i, row.Nr)
		}
	}
	for i, f := range m.Failures {
		if f.Nr < 0 {
			return CompleteRequest{}, fmt.Errorf("%w: failure %d: negative expNr %d", ErrProtocol, i, f.Nr)
		}
		trimmed := bytes.TrimSpace(f.Record)
		if len(trimmed) == 0 || trimmed[0] != '{' || !json.Valid(trimmed) {
			return CompleteRequest{}, fmt.Errorf("%w: failure %d (expNr %d): record is not a JSON object", ErrProtocol, i, f.Nr)
		}
	}
	return m, nil
}

// DecodeSubmitRequest parses and validates a SubmitRequest: the config
// must be a JSON object (the ordinary config-file shape — full semantic
// validation happens in the service, which parses it with the config
// loader), and the optional name is length-bounded and must not contain
// path separators or control characters, since it ends up in log lines
// and status documents.
func DecodeSubmitRequest(data []byte) (SubmitRequest, error) {
	var m SubmitRequest
	if err := decodeStrict(data, &m); err != nil {
		return SubmitRequest{}, err
	}
	trimmed := bytes.TrimSpace(m.Config)
	if len(trimmed) == 0 {
		return SubmitRequest{}, fmt.Errorf("%w: submit carries no config", ErrProtocol)
	}
	if trimmed[0] != '{' || !json.Valid(trimmed) {
		return SubmitRequest{}, fmt.Errorf("%w: submit config is not a JSON object", ErrProtocol)
	}
	if len(m.Name) > maxCampaignName {
		return SubmitRequest{}, fmt.Errorf("%w: campaign name of %d bytes exceeds %d", ErrProtocol, len(m.Name), maxCampaignName)
	}
	for _, r := range m.Name {
		if r < 0x20 || r == 0x7f || r == '/' || r == '\\' {
			return SubmitRequest{}, fmt.Errorf("%w: campaign name contains %q", ErrProtocol, r)
		}
	}
	return m, nil
}

// DecodeCancelRequest parses and validates a CancelRequest.
func DecodeCancelRequest(data []byte) (CancelRequest, error) {
	var m CancelRequest
	if err := decodeStrict(data, &m); err != nil {
		return CancelRequest{}, err
	}
	if m.CampaignID == "" {
		return CancelRequest{}, fmt.Errorf("%w: empty campaignID", ErrProtocol)
	}
	return m, nil
}
