package analysis

import (
	"math"
	"strings"
	"testing"

	"comfase/internal/classify"
	"comfase/internal/core"
	"comfase/internal/sim/des"
)

func expWithDecel(d float64) core.ExperimentResult {
	return core.ExperimentResult{
		Spec:     core.ExperimentSpec{Attack: "delay", Value: 1, Start: des.Second, Duration: des.Second},
		Outcome:  classify.Benign,
		MaxDecel: d,
	}
}

func TestPaperDecelEdges(t *testing.T) {
	edges := PaperDecelEdges(1.53)
	want := []float64{0, 1.53, 5, 8, math.Inf(1)}
	if len(edges) != len(want) {
		t.Fatalf("edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("edges = %v, want %v", edges, want)
		}
	}
}

func TestDecelHistogram(t *testing.T) {
	exps := []core.ExperimentResult{
		expWithDecel(0.5), expWithDecel(1.53), // negligible band
		expWithDecel(3),                    // benign band
		expWithDecel(6), expWithDecel(7.9), // emergency band
		expWithDecel(9), // beyond emergency
	}
	bins := DecelHistogram(exps, PaperDecelEdges(1.53))
	if len(bins) != 4 {
		t.Fatalf("bins = %v", bins)
	}
	wantCounts := []int{2, 1, 2, 1}
	for i, want := range wantCounts {
		if bins[i].Count != want {
			t.Errorf("bin %d (%s) count = %d, want %d", i, bins[i].Label(), bins[i].Count, want)
		}
	}
	// Totals preserved.
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != len(exps) {
		t.Errorf("histogram lost experiments: %d of %d", total, len(exps))
	}
}

func TestDecelHistogramDegenerate(t *testing.T) {
	if got := DecelHistogram(nil, []float64{1}); got != nil {
		t.Error("single-edge histogram should be nil")
	}
	if got := DecelHistogram(nil, []float64{2, 1}); got != nil {
		t.Error("unsorted edges should be nil")
	}
}

func TestDecelBinLabel(t *testing.T) {
	b := DecelBin{Lo: 1.53, Hi: 5}
	if !strings.Contains(b.Label(), "1.53") || !strings.Contains(b.Label(), "5.00") {
		t.Errorf("Label = %q", b.Label())
	}
	open := DecelBin{Lo: 8, Hi: math.Inf(1)}
	if !strings.HasPrefix(open.Label(), "> 8.00") {
		t.Errorf("open Label = %q", open.Label())
	}
}

func TestWriteDecelHistogram(t *testing.T) {
	var sb strings.Builder
	bins := DecelHistogram([]core.ExperimentResult{expWithDecel(3)}, PaperDecelEdges(1.53))
	if err := WriteDecelHistogram(&sb, bins); err != nil {
		t.Fatalf("WriteDecelHistogram: %v", err)
	}
	if !strings.Contains(sb.String(), "max deceleration band") {
		t.Errorf("missing header: %q", sb.String())
	}
}

func TestExperimentsCSV(t *testing.T) {
	exps := sampleExperiments()
	var sb strings.Builder
	if err := ExperimentsCSV(&sb, exps); err != nil {
		t.Fatalf("ExperimentsCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(exps)+1 {
		t.Fatalf("csv lines = %d, want %d", len(lines), len(exps)+1)
	}
	if !strings.HasPrefix(lines[0], "expNr,attack,value,start_s") {
		t.Errorf("header = %q", lines[0])
	}
	// The severe experiment with a collider carries its attribution.
	found := false
	for _, l := range lines[1:] {
		if strings.Contains(l, "severe") && strings.Contains(l, "vehicle.2") {
			found = true
		}
	}
	if !found {
		t.Error("severe collider row missing")
	}
}
