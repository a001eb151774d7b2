package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"comfase/internal/analysis"
	"comfase/internal/config"
	"comfase/internal/core"
	"comfase/internal/obs"
	"comfase/internal/runner"
)

// Executor runs one leased grid range [from, to) and returns the wire
// rows: each grid point exactly once, either as its exact sequential CSV
// record or as its exact quarantine JSON line, both in ascending expNr
// order. The production executor wraps the ordinary campaign runner;
// tests substitute chaos-injecting ones.
type Executor interface {
	Execute(ctx context.Context, from, to int) ([]ResultRow, []FailureRow, error)
}

// ExecutorOptions tune the campaign executor beyond the config file.
type ExecutorOptions struct {
	// Workers overrides the config's local worker-pool size when > 0.
	Workers int
	// Metrics receives the runner/engine instrumentation; it is the same
	// registry whose snapshots the fabric worker reports as heartbeats.
	Metrics *obs.Registry
}

// campaignExecutor executes leased ranges through internal/runner with
// Options.Range, preserving every execution feature of a local campaign
// (checkpoint forking, trie chaining, retries, watchdogs) and therefore
// the byte-identical-output invariant. Its runner.Matrix keeps the last
// scenario's engine across leases, so the golden run executes once per
// scenario, not once per lease.
type campaignExecutor struct {
	grid   *runner.Matrix
	matrix bool
	base   runner.Options
}

// NewExecutor builds the production executor from the raw config JSON a
// coordinator serves at registration. The runner options come from the
// config's runtime section, with two fabric-imposed changes: the failure
// budget is unlimited (the coordinator owns the campaign-level budget)
// and result/quarantine files are replaced by in-memory wire rows.
func NewExecutor(cfgJSON []byte, opts ExecutorOptions) (Executor, error) {
	parsed, err := config.Parse(bytes.NewReader(cfgJSON))
	if err != nil {
		return nil, fmt.Errorf("fabric: coordinator config: %w", err)
	}
	base := runner.Options{
		Workers:            parsed.Runtime.Workers,
		Retries:            parsed.Runtime.Retries,
		RetryBackoff:       parsed.Runtime.RetryBackoff,
		ExperimentTimeout:  parsed.Runtime.ExperimentTimeout,
		MaxFailures:        -1, // the coordinator enforces the campaign budget
		DisableCheckpoints: parsed.Runtime.DisableCheckpoints,
		DisableTrie:        parsed.Runtime.DisableTrie,
		Metrics:            opts.Metrics,
	}
	if opts.Workers > 0 {
		base.Workers = opts.Workers
	}
	if base.Workers == 0 {
		base.Workers = -1 // all cores
	}
	cells, matrix := parsed.Grid()
	for i := range cells {
		cells[i].Engine.Metrics = opts.Metrics
	}
	return &campaignExecutor{grid: &runner.Matrix{Cells: cells}, matrix: matrix, base: base}, nil
}

// Execute implements Executor.
func (e *campaignExecutor) Execute(ctx context.Context, from, to int) ([]ResultRow, []FailureRow, error) {
	rs := &rowSink{matrix: e.matrix}
	fs := &failureSink{}
	opts := e.base
	opts.Range = runner.Range{From: from, To: to}
	opts.Quarantine = fs
	if _, err := e.grid.Run(ctx, opts, rs); err != nil {
		return nil, nil, err
	}
	return rs.rows, fs.failures, nil
}

// rowSink captures released results as wire rows. The runner releases in
// grid order, so the rows arrive sorted by expNr.
type rowSink struct {
	matrix bool
	rows   []ResultRow
}

func (s *rowSink) Put(res core.ExperimentResult) error {
	var rec []string
	if s.matrix {
		rec = analysis.MatrixCSVRecord(res)
	} else {
		rec = analysis.ExperimentCSVRecord(res)
	}
	s.rows = append(s.rows, ResultRow{Nr: res.Spec.Nr, Fields: rec})
	return nil
}

func (s *rowSink) Flush() error { return nil }

// failureSink captures quarantine records as the exact JSON line the
// sequential QuarantineSink would write (json.Marshal output; the
// Encoder adds only the trailing newline, which the coordinator appends
// on merge).
type failureSink struct {
	failures []FailureRow
}

func (s *failureSink) Put(f core.ExperimentFailure) error {
	rec, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if !json.Valid(rec) {
		return errors.New("fabric: quarantine record did not marshal to valid JSON")
	}
	s.failures = append(s.failures, FailureRow{Nr: f.Nr, Record: rec})
	return nil
}

func (s *failureSink) Flush() error { return nil }
