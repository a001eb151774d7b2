package main

import (
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4), whose
	// spread the benchmark's acceptance check reads.
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9.0}, 1.25, 3.5, 9.0},
		{[]float64{2, 8}, 0.5, 5.0, 9.5},
		{[]float64{10, 1, 4, 7, 3, 9, 2}, 2.0, 4.0, 9.0},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.xs); m != tc.q2 {
			t.Errorf("median(%v) = %v, want %v", tc.xs, m, tc.q2)
		}
	}
}

func TestSummarizeReportsMedians(t *testing.T) {
	defs := []benchMetric{{Name: "wall_s", Unit: "s"}, {Name: "setup_s", Unit: "s"}}
	var r result
	if err := r.summarize(defs, map[string][]float64{"wall_s": {3, 1, 2}, "setup_s": {0.5}}); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics["wall_s"]; got.Value != 2 || got.Unit != "s" {
		t.Errorf("wall_s = %+v, want the median 2 s", got)
	}
	if err := r.summarize(defs, nil); err != nil || r.Metrics["setup_s"].Value != 0 || r.spread["setup_s"].n != 0 {
		t.Errorf("without samples: %v, setup_s %+v", err, r.Metrics["setup_s"])
	}
}

// TestSummarizeChecksNames keeps BENCHMARK.json and the computed metrics
// in step: a listed metric nobody computes and a computed metric nobody
// listed are both errors.
func TestSummarizeChecksNames(t *testing.T) {
	defs := []benchMetric{{Name: "wall_s", Unit: "s"}, {Name: "setup_s", Unit: "s"}}
	var r result
	if err := r.summarize(defs, map[string][]float64{"wall_s": {1}}); err == nil {
		t.Error("a listed metric without samples was accepted")
	}
	if err := r.summarize(defs, map[string][]float64{"wall_s": {1}, "setup_s": {1}, "cpu_s": {1}}); err == nil {
		t.Error("an unlisted metric was accepted")
	}
}

func TestCompareSetsVerdicts(t *testing.T) {
	bench := &benchmarkFile{Workloads: []benchWorkload{{Name: "w"}}}
	for _, m := range []struct {
		name, better string
	}{{"agree", "lower"}, {"worse", "lower"}, {"better", "higher"}, {"noisy", "lower"}, {"missing", "lower"}} {
		bench.EndToEnd = append(bench.EndToEnd, benchMetric{Name: m.name, Unit: "s", Better: m.better, Bound: 0.1})
	}
	set := func(vals map[string][]float64) *setFile {
		s := &setFile{}
		for i := 0; i < 4; i++ {
			run := setRun{Workload: "w", Result: result{Correct: true, Metrics: map[string]metric{}}}
			for name, xs := range vals {
				run.Result.Metrics[name] = metric{Value: xs[i]}
			}
			s.Runs = append(s.Runs, run)
		}
		return s
	}
	a := set(map[string][]float64{
		"agree":  {10, 10, 10, 10},
		"worse":  {10, 10, 10, 10},
		"better": {10, 10, 10, 10},
		"noisy":  {5, 10, 15, 20},
	})
	b := set(map[string][]float64{
		"agree":   {10.5, 10.5, 10.5, 10.5},
		"worse":   {12, 12, 12, 12},
		"better":  {12, 12, 12, 12},
		"noisy":   {10, 10, 10, 10},
		"missing": {1, 1, 1, 1},
	})
	var out strings.Builder
	if compareSets(&out, bench, a, b) {
		t.Fatalf("compareSets accepted a worse, an unresolved and a missing metric:\n%s", out.String())
	}
	for name, verdict := range map[string]string{
		"agree": "agree", "worse": "worse", "better": "better", "noisy": "unresolved", "missing": "missing",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == name {
				found = f[len(f)-1] == verdict
			}
		}
		if !found {
			t.Errorf("metric %s: want verdict %s in\n%s", name, verdict, out.String())
		}
	}

	out.Reset()
	// A gain beyond the bound is reported but does not fail the check.
	agreeing := &benchmarkFile{Workloads: bench.Workloads, EndToEnd: []benchMetric{bench.EndToEnd[0], bench.EndToEnd[2]}}
	if !compareSets(&out, agreeing, a, b) {
		t.Errorf("compareSets rejected agreeing sets:\n%s", out.String())
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "iteration", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "run", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "rpc", Start: 2, End: 5},
		{ID: 4, Parent: 1, Name: "rpc", Start: 8, End: 12},
	}
	totals := summarizeSpans(spans)
	want := map[string]spanTotal{
		"iteration": {name: "iteration", count: 1, total: 10, self: 4},
		"run":       {name: "run", count: 1, total: 2, self: 2},
		"rpc":       {name: "rpc", count: 2, total: 7, self: 7},
	}
	if len(totals) != len(want) {
		t.Fatalf("got %d span names, want %d", len(totals), len(want))
	}
	for _, got := range totals {
		if got != want[got.name] {
			t.Errorf("span %s: got %+v, want %+v", got.name, got, want[got.name])
		}
	}
}
