package runner

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"comfase/internal/core"
)

// FailureSink consumes the quarantine records of persistently failed
// experiments, released in deterministic grid order like result Sinks
// (one call at a time; no concurrency). A non-nil error aborts the
// campaign fail-fast.
type FailureSink interface {
	// Put receives the next persistent failure in grid order.
	Put(f core.ExperimentFailure) error
	// Flush forces buffered records out; the Runner calls it after the
	// last record and on abort.
	Flush() error
}

// QuarantineSink streams one JSON object per line per persistent failure
// — the quarantine.jsonl file. Records write through on every Put, so an
// interrupted campaign leaves a complete, parseable prefix (plus at most
// one truncated trailing line, which ReadQuarantine tolerates).
type QuarantineSink struct {
	enc *json.Encoder
}

// NewQuarantineSink returns a quarantine sink writing JSON lines to w.
func NewQuarantineSink(w io.Writer) *QuarantineSink {
	return &QuarantineSink{enc: json.NewEncoder(w)}
}

// Put implements FailureSink.
func (s *QuarantineSink) Put(f core.ExperimentFailure) error { return s.enc.Encode(f) }

// Flush implements FailureSink. The encoder writes through on every Put,
// so there is nothing to flush.
func (s *QuarantineSink) Flush() error { return nil }

// MemoryFailureSink collects quarantine records in memory.
type MemoryFailureSink struct {
	// Failures holds the received records in arrival (grid) order.
	Failures []core.ExperimentFailure
}

// Put implements FailureSink.
func (s *MemoryFailureSink) Put(f core.ExperimentFailure) error {
	s.Failures = append(s.Failures, f)
	return nil
}

// Flush implements FailureSink.
func (s *MemoryFailureSink) Flush() error { return nil }

// ReadQuarantine parses a quarantine.jsonl stream back into failure
// records keyed by expNr — the input of Options.ResumeFailures. A
// truncated final line (a crash mid-write: malformed, nothing after it,
// no trailing newline) is ignored; a malformed line anywhere else, or a
// duplicate expNr, is an error.
func ReadQuarantine(r io.Reader) (map[int]core.ExperimentFailure, error) {
	out := make(map[int]core.ExperimentFailure)
	tail := &tailTracker{r: r}
	sc := bufio.NewScanner(tail)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024) // panic stacks are long
	line := 0
	var pendingErr error
	for sc.Scan() {
		line++
		if pendingErr != nil {
			// The malformed line had healthy successors: real corruption.
			return nil, pendingErr
		}
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var f core.ExperimentFailure
		if err := json.Unmarshal(text, &f); err != nil {
			// Tolerated only if this turns out to be the last line.
			pendingErr = fmt.Errorf("runner: quarantine line %d: %w", line, err)
			continue
		}
		if _, err := core.ParseFailureClass(f.Class); err != nil {
			return nil, fmt.Errorf("runner: quarantine line %d: %w", line, err)
		}
		if _, dup := out[f.Nr]; dup {
			return nil, fmt.Errorf("runner: quarantine line %d: duplicate expNr %d", line, f.Nr)
		}
		out[f.Nr] = f
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("runner: quarantine: %w", err)
	}
	if pendingErr != nil && tail.last == '\n' {
		// The malformed line was newline-terminated: a complete write,
		// so real corruption rather than an interrupted one.
		return nil, pendingErr
	}
	return out, nil
}

// ReadQuarantineFile is ReadQuarantine over a file path. A missing file
// yields an empty map, so resuming a clean campaign degrades to a normal
// run.
func ReadQuarantineFile(path string) (map[int]core.ExperimentFailure, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[int]core.ExperimentFailure{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadQuarantine(f)
}
