package runner

import (
	"encoding/json"
	"io"

	"comfase/internal/analysis"
	"comfase/internal/classify"
	"comfase/internal/core"
)

// Sink consumes classified experiment results as they are released by a
// Runner. Results arrive in deterministic grid order (the Runner reorders
// worker completions), one call at a time from a single goroutine, so
// sinks need not be safe for concurrent use. A non-nil error from Put or
// Flush aborts the campaign fail-fast.
type Sink interface {
	// Put receives the next result in grid order.
	Put(res core.ExperimentResult) error
	// Flush forces buffered rows out. The Runner calls it after the last
	// result and — crucially — on abort, so partial results survive a
	// cancellation. It does not close underlying files; the opener does.
	Flush() error
}

// CSVSink streams one CSV row per result, writing through on every row so
// an interrupted campaign leaves a complete, parseable prefix on disk —
// the file Resume reads back. A single campaign uses the 10-column
// analysis.ExperimentsCSV schema; a matrix uses the 11-column
// analysis.MatrixCSVHeader schema with the scenario column. Rows are
// encoded with the analysis appenders into a buffer reused across Puts,
// so the per-row path is allocation-free in steady state while staying
// byte-identical to encoding/csv output.
type CSVSink struct {
	w      io.Writer
	buf    []byte
	header bool // a header is still to be written before the next row
	matrix bool
}

// NewResultsCSVSink returns a sink in the matrix or the single-campaign
// schema. header asks for a header before the first row; the resume path
// appending to a result file that already carries one passes false.
func NewResultsCSVSink(w io.Writer, matrix, header bool) *CSVSink {
	return &CSVSink{w: w, header: header, matrix: matrix}
}

// NewCSVSink returns a single-campaign sink that writes a header before
// the first row.
func NewCSVSink(w io.Writer) *CSVSink { return NewResultsCSVSink(w, false, true) }

// NewMatrixCSVSink returns a matrix sink that writes a header before the
// first row.
func NewMatrixCSVSink(w io.Writer) *CSVSink { return NewResultsCSVSink(w, true, true) }

// Put implements Sink.
func (s *CSVSink) Put(res core.ExperimentResult) error {
	s.buf = s.buf[:0]
	if s.header {
		if s.matrix {
			s.buf = analysis.AppendMatrixCSVHeader(s.buf)
		} else {
			s.buf = analysis.AppendExperimentCSVHeader(s.buf)
		}
		s.header = false
	}
	if s.matrix {
		s.buf = analysis.AppendMatrixCSVRow(s.buf, res)
	} else {
		s.buf = analysis.AppendExperimentCSVRow(s.buf, res)
	}
	_, err := s.w.Write(s.buf)
	return err
}

// Flush implements Sink. Put writes through, so nothing is buffered.
func (s *CSVSink) Flush() error { return nil }

// jsonRow is the flat JSON-lines encoding of one result. ExperimentSpec
// itself is not marshalable (it can carry a ModelFactory func), so the
// sink projects the same fields the CSV schema persists.
type jsonRow struct {
	Nr          int     `json:"expNr"`
	Scenario    string  `json:"scenario,omitempty"`
	Attack      string  `json:"attack"`
	Value       float64 `json:"value"`
	StartS      float64 `json:"startS"`
	DurationS   float64 `json:"durationS"`
	Outcome     string  `json:"outcome"`
	MaxDecel    float64 `json:"maxDecelMps2"`
	MaxSpeedDev float64 `json:"maxSpeedDevMps"`
	Collisions  int     `json:"collisions"`
	Collider    string  `json:"collider,omitempty"`
}

// JSONSink streams one JSON object per line per result.
type JSONSink struct {
	enc *json.Encoder
}

// NewJSONSink returns a JSON-lines sink writing to w.
func NewJSONSink(w io.Writer) *JSONSink {
	return &JSONSink{enc: json.NewEncoder(w)}
}

// Put implements Sink.
func (s *JSONSink) Put(res core.ExperimentResult) error {
	return s.enc.Encode(jsonRow{
		Nr:          res.Spec.Nr,
		Scenario:    res.Spec.Scenario,
		Attack:      res.Spec.AttackLabel(),
		Value:       res.Spec.Value,
		StartS:      res.Spec.Start.Seconds(),
		DurationS:   res.Spec.Duration.Seconds(),
		Outcome:     res.Outcome.String(),
		MaxDecel:    res.MaxDecel,
		MaxSpeedDev: res.MaxSpeedDev,
		Collisions:  len(res.Collisions),
		Collider:    res.Collider,
	})
}

// Flush implements Sink. The encoder writes through on every Put, so
// there is nothing to flush.
func (s *JSONSink) Flush() error { return nil }

// MemorySink aggregates results in memory — the in-process equivalent of
// the CSV file for library callers that want streaming progress plus a
// final in-memory campaign summary.
type MemorySink struct {
	// Experiments holds the received results in arrival (grid) order.
	Experiments []core.ExperimentResult
	// Counts tallies the received outcome classes.
	Counts classify.Counts
}

// Put implements Sink.
func (s *MemorySink) Put(res core.ExperimentResult) error {
	s.Experiments = append(s.Experiments, res)
	s.Counts.Add(res.Outcome)
	return nil
}

// Flush implements Sink.
func (s *MemorySink) Flush() error { return nil }
