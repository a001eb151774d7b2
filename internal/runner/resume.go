package runner

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"comfase/internal/analysis"
	"comfase/internal/classify"
	"comfase/internal/core"
	"comfase/internal/sim/des"
	"comfase/internal/traffic"
)

// ReadResults parses a per-experiment CSV result file (the schema of
// analysis.ExperimentsCSV / CSVSink) and returns the completed
// experiments keyed by expNr — the input of Options.Resume.
//
// A truncated FINAL line — a run killed mid-write (power loss, SIGKILL)
// leaves a partial record with no trailing newline — is tolerated and
// dropped; the resume run simply re-executes that grid point. Malformed
// records that are newline-terminated or have healthy successors, and
// duplicate expNrs, remain hard errors — those indicate real corruption,
// not an interrupted write.
//
// The reconstruction is lossy where the CSV is: MaxDecel/MaxSpeedDev
// carry the file's 4-decimal precision, per-vehicle deceleration vectors
// are gone, and the collision list is rebuilt only as far as its length
// and the first collider. That is sufficient for every aggregate the
// analysis package computes (outcome counts, figure series, collider
// attribution) — and resumed rows are never re-written to the result
// file, so the on-disk record stays exact.
func ReadResults(r io.Reader) (map[int]core.ExperimentResult, error) {
	tail := &tailTracker{r: r}
	cr := csv.NewReader(tail)
	header, err := cr.Read()
	if err == io.EOF {
		return map[int]core.ExperimentResult{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runner: results header: %w", err)
	}
	matrix, err := resultSchema(header)
	if err != nil {
		return nil, err
	}
	out := make(map[int]core.ExperimentResult)
	// truncatedTail reports whether the malformed record just read is an
	// interrupted final write: nothing follows it and the stream does
	// not end with a newline.
	truncatedTail := func() bool {
		_, err := cr.Read()
		return err == io.EOF && tail.last != '\n'
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			if truncatedTail() {
				return out, nil // drop the partial record
			}
			return nil, fmt.Errorf("runner: results line %d: %w", line, err)
		}
		res, err := parseResultRecord(rec, matrix)
		if err != nil {
			if truncatedTail() {
				return out, nil // drop the partial record
			}
			return nil, fmt.Errorf("runner: results line %d: %w", line, err)
		}
		if _, dup := out[res.Spec.Nr]; dup {
			return nil, fmt.Errorf("runner: results line %d: duplicate expNr %d", line, res.Spec.Nr)
		}
		out[res.Spec.Nr] = res
	}
}

// tailTracker remembers the last byte delivered from the underlying
// reader, so ReadResults can tell a truncated final write (no trailing
// newline) from a complete-but-corrupt record.
type tailTracker struct {
	r    io.Reader
	last byte
}

func (t *tailTracker) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.last = p[n-1]
	}
	return n, err
}

// resultSchema validates a results-file header and reports whether it
// uses the matrix schema (scenario column after expNr) or the legacy
// single-campaign schema.
func resultSchema(header []string) (matrix bool, err error) {
	if len(header) == 0 || header[0] != "expNr" {
		return false, fmt.Errorf("runner: not a results file (header starts with %q)", first(header))
	}
	switch {
	case len(header) == len(analysis.ExperimentCSVHeader()) && header[1] == "attack":
		return false, nil
	case len(header) == len(analysis.MatrixCSVHeader()) && header[1] == "scenario":
		return true, nil
	default:
		return false, fmt.Errorf("runner: unrecognised results schema (%d columns)", len(header))
	}
}

func first(header []string) string {
	if len(header) == 0 {
		return ""
	}
	return header[0]
}

func parseResultRecord(rec []string, matrix bool) (core.ExperimentResult, error) {
	var res core.ExperimentResult
	nr, err := strconv.Atoi(rec[0])
	if err != nil {
		return res, fmt.Errorf("expNr: %w", err)
	}
	scenarioLabel := ""
	if matrix {
		scenarioLabel = rec[1]
		rec = rec[1:] // remaining columns match the legacy layout
	}
	// The attack column resolves through the registry, so labels and cell
	// grouping survive the round trip.
	entry, err := core.LookupAttack(rec[1])
	if err != nil {
		return res, err
	}
	value, err := strconv.ParseFloat(rec[2], 64)
	if err != nil {
		return res, fmt.Errorf("value: %w", err)
	}
	startS, err := strconv.ParseFloat(rec[3], 64)
	if err != nil {
		return res, fmt.Errorf("start_s: %w", err)
	}
	durS, err := strconv.ParseFloat(rec[4], 64)
	if err != nil {
		return res, fmt.Errorf("duration_s: %w", err)
	}
	outcome, err := classify.ParseOutcome(rec[5])
	if err != nil {
		return res, err
	}
	maxDecel, err := strconv.ParseFloat(rec[6], 64)
	if err != nil {
		return res, fmt.Errorf("max_decel_mps2: %w", err)
	}
	maxSpeedDev, err := strconv.ParseFloat(rec[7], 64)
	if err != nil {
		return res, fmt.Errorf("max_speed_dev_mps: %w", err)
	}
	nCollisions, err := strconv.Atoi(rec[8])
	if err != nil {
		return res, fmt.Errorf("collisions: %w", err)
	}
	if nCollisions < 0 {
		return res, fmt.Errorf("negative collision count %d", nCollisions)
	}
	res = core.ExperimentResult{
		Spec: core.ExperimentSpec{
			Nr:       nr,
			Attack:   entry.Name,
			Scenario: scenarioLabel,
			Value:    value,
			Start:    des.FromSeconds(startS),
			Duration: des.FromSeconds(durS),
		},
		Outcome:     outcome,
		MaxDecel:    maxDecel,
		MaxSpeedDev: maxSpeedDev,
		Collider:    rec[9],
	}
	if nCollisions > 0 {
		res.Collisions = make([]traffic.Collision, nCollisions)
		res.Collisions[0].Collider = rec[9]
	}
	return res, nil
}

// ReadResultsFile is ReadResults over a file path. A missing file yields
// an empty map, so "-resume" on a first run degrades to a normal run.
func ReadResultsFile(path string) (map[int]core.ExperimentResult, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[int]core.ExperimentResult{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadResults(f)
}
