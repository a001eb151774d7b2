package analysis

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"comfase/internal/core"
)

// DecelBin is one bucket of a deceleration-magnitude histogram: the
// severity grading by "magnitude of vehicle decelerations" the paper's
// Step-4 describes.
type DecelBin struct {
	// Lo/Hi bound the bucket: Lo < maxDecel <= Hi.
	Lo, Hi float64
	// Count is the number of experiments in the bucket.
	Count int
}

// Label renders "(lo, hi] m/s^2" with an open upper bucket.
func (b DecelBin) Label() string {
	if math.IsInf(b.Hi, 1) {
		return fmt.Sprintf("> %.2f m/s^2", b.Lo)
	}
	return fmt.Sprintf("(%.2f, %.2f] m/s^2", b.Lo, b.Hi)
}

// PaperDecelEdges returns the §IV-B band edges anchored at the golden
// maximum: [0, golden], (golden, 5], (5, 8], (8, inf).
func PaperDecelEdges(goldenMaxDecel float64) []float64 {
	return []float64{0, goldenMaxDecel, 5, 8, math.Inf(1)}
}

// DecelHistogram bins experiments by their maximum deceleration. edges
// must be strictly increasing; values at or below edges[0] land in the
// first bucket.
func DecelHistogram(exps []core.ExperimentResult, edges []float64) []DecelBin {
	if len(edges) < 2 {
		return nil
	}
	if !sort.Float64sAreSorted(edges) {
		return nil
	}
	bins := make([]DecelBin, len(edges)-1)
	for i := range bins {
		bins[i] = DecelBin{Lo: edges[i], Hi: edges[i+1]}
	}
	for _, e := range exps {
		d := e.MaxDecel
		for i := range bins {
			if (d > bins[i].Lo || i == 0) && d <= bins[i].Hi {
				bins[i].Count++
				break
			}
		}
	}
	return bins
}

// WriteDecelHistogram renders the histogram as an aligned table.
func WriteDecelHistogram(w io.Writer, bins []DecelBin) error {
	if _, err := fmt.Fprintf(w, "%-24s %8s\n", "max deceleration band", "count"); err != nil {
		return err
	}
	for _, b := range bins {
		if _, err := fmt.Fprintf(w, "%-24s %8d\n", b.Label(), b.Count); err != nil {
			return err
		}
	}
	return nil
}

// ExperimentCSVHeader returns the column names of the per-experiment CSV
// schema shared by ExperimentsCSV and the streaming runner.CSVSink.
func ExperimentCSVHeader() []string {
	return []string{
		"expNr", "attack", "value", "start_s", "duration_s",
		"outcome", "max_decel_mps2", "max_speed_dev_mps",
		"collisions", "collider",
	}
}

// ExperimentCSVRecord encodes one experiment as a CSV record matching
// ExperimentCSVHeader. The encoding is deterministic, so result files
// written row-by-row by a streaming sink are byte-identical to a batch
// ExperimentsCSV export of the same experiments in the same order.
func ExperimentCSVRecord(e core.ExperimentResult) []string {
	return []string{
		strconv.Itoa(e.Spec.Nr),
		e.Spec.Attack,
		strconv.FormatFloat(e.Spec.Value, 'g', -1, 64),
		strconv.FormatFloat(e.Spec.Start.Seconds(), 'f', 3, 64),
		strconv.FormatFloat(e.Spec.Duration.Seconds(), 'f', 3, 64),
		e.Outcome.String(),
		strconv.FormatFloat(e.MaxDecel, 'f', 4, 64),
		strconv.FormatFloat(e.MaxSpeedDev, 'f', 4, 64),
		strconv.Itoa(len(e.Collisions)),
		e.Collider,
	}
}

// ExperimentsCSV exports one row per experiment — the raw
// AttackCampaignLog view for downstream analysis pipelines:
// expNr,attack,value,start_s,duration_s,outcome,max_decel,max_speed_dev,
// collisions,collider.
func ExperimentsCSV(w io.Writer, exps []core.ExperimentResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(ExperimentCSVHeader()); err != nil {
		return err
	}
	for _, e := range exps {
		if err := cw.Write(ExperimentCSVRecord(e)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// MatrixCSVHeader returns the per-experiment CSV schema of matrix
// campaigns: the single-campaign schema with a scenario column after
// expNr, so every row carries its cell identity.
func MatrixCSVHeader() []string {
	return []string{
		"expNr", "scenario", "attack", "value", "start_s", "duration_s",
		"outcome", "max_decel_mps2", "max_speed_dev_mps",
		"collisions", "collider",
	}
}

// MatrixCSVRecord encodes one experiment as a CSV record matching
// MatrixCSVHeader; encoding matches ExperimentCSVRecord field for field.
func MatrixCSVRecord(e core.ExperimentResult) []string {
	rec := ExperimentCSVRecord(e)
	out := make([]string, 0, len(rec)+1)
	out = append(out, rec[0], e.Spec.Scenario)
	return append(out, rec[1:]...)
}
