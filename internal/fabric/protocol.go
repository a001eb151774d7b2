// Package fabric is the distributed campaign runtime of the ComFASE
// reproduction: a coordinator service (`comfase serve`) that owns one
// expanded campaign/matrix grid and leases contiguous expNr ranges to
// worker processes (`comfase work`) over a small HTTP+JSON protocol,
// plus the failure machinery that makes the distribution trustworthy —
// lease TTLs renewed from the workers' obs heartbeat snapshots,
// dead-worker detection with automatic re-lease of unfinished ranges, a
// per-lease generation counter that rejects late results from a
// presumed-dead worker idempotently, bounded worker-side retry with
// jittered exponential backoff for coordinator blips, and a draining
// mode that finishes what is leased while leasing nothing new.
//
// The service streams merged rows in grid order through a release
// frontier, so the final results CSV (and the merged quarantine.jsonl)
// is byte-identical to a sequential single-process run even when
// workers crash mid-range and their leases are re-executed elsewhere.
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
// report response's unread drain flag. v4 serves one campaign per
// coordinator: the config rides the register response again, and lease,
// report and completion messages carry no campaign ID.
const ProtocolVersion = 4

// Paths of the coordinator's HTTP endpoints: the worker data plane plus
// the read-only status document.
const (
	PathRegister = "/v1/register"
	PathLease    = "/v1/lease"
	PathReport   = "/v1/report"
	PathComplete = "/v1/complete"
	PathStatus   = "/v1/status"
)

// RegisterRequest introduces a worker to the coordinator. Host and PID
// are diagnostic only; identity is the coordinator-assigned WorkerID in
// the response.
type RegisterRequest struct {
	Host string `json:"host,omitempty"`
	PID  int    `json:"pid,omitempty"`
}

// RegisterResponse hands the worker its identity, the campaign config
// and the lease TTL it must renew within.
type RegisterResponse struct {
	Version  int    `json:"version"`
	WorkerID string `json:"workerID"`
	// Config is the campaign's raw config JSON, exactly what `comfase
	// serve -config` read. The worker parses it with the ordinary config
	// loader and builds its executor from it once.
	Config json.RawMessage `json:"config"`
	// LeaseTTLMS is the lease time-to-live in milliseconds. A worker
	// that does not report within it is presumed dead and its range is
	// re-leased.
	LeaseTTLMS int64 `json:"leaseTTLMS"`
}

// LeaseRequest asks for the next unleased range of the grid.
type LeaseRequest struct {
	WorkerID string `json:"workerID"`
}

// LeaseResponse grants a range, or explains why none was granted. An
// ungranted request parks on the coordinator until a range comes free or
// the run ends, so a response with none of Granted, Done and Draining set
// means only that the park bound elapsed: ask again at once.
type LeaseResponse struct {
	// Granted reports whether Chunk/From/To/Gen carry a lease.
	Granted bool `json:"granted"`
	// Chunk is the grid's range index; echo it on report/complete.
	Chunk int `json:"chunk"`
	// From/To is the half-open expNr interval [From, To) to execute.
	From int `json:"from"`
	To   int `json:"to"`
	// Gen is the lease generation. A range re-leased after a presumed
	// worker death carries a higher generation; reports with a stale
	// generation are rejected.
	Gen uint64 `json:"gen"`
	// Done: the campaign is complete and the coordinator is about to
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
	// the range completed elsewhere, or the run failed): abandon the
	// work, ask anew.
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
	Chunk    int          `json:"chunk"`
	Gen      uint64       `json:"gen"`
	Rows     []ResultRow  `json:"rows"`
	Failures []FailureRow `json:"failures,omitempty"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	OK bool `json:"ok"`
	// Stale: the lease generation was superseded (the range was — or is
	// being — re-executed elsewhere, or the run failed); the payload was
	// discarded. This is the idempotent rejection of a late
	// report from a presumed-dead worker: not an error, just "your work
	// was no longer wanted".
	Stale bool `json:"stale,omitempty"`
}

// StatusResponse is the GET /v1/status document — a human/tooling view
// of the campaign's progress and the worker fleet, separate from the obs
// snapshot.
type StatusResponse struct {
	Version    int            `json:"version"`
	Total      int            `json:"total"`
	Merged     int            `json:"merged"`   // grid points written out
	Failures   int            `json:"failures"` // of which quarantined
	Chunks     int            `json:"chunks"`
	ChunksDone int            `json:"chunksDone"`
	Draining   bool           `json:"draining"`
	Workers    []WorkerStatus `json:"workers,omitempty"`
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
// carry whole ranges of CSV rows and the register response a whole
// config file, so the bound is generous; everything else is tiny.
const maxMessageBytes = 64 << 20

// decodeStrict parses exactly one JSON document into dst, rejecting
// unknown fields, trailing garbage and oversized payloads. It is the
// single entry point for every protocol message, which keeps the fuzz
// surface (FuzzLeaseProtocolDecode) honest:
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
