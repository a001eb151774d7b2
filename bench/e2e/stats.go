package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as the last line of its output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// spread keeps each metric's quartiles and sample count for the
	// human-readable table.
	spread map[string]quartileSet
}

type quartileSet struct {
	q1, median, q3 float64
	n              int
}

// summarize reports the median of every defined metric's samples. The
// definitions come from BENCHMARK.json and the samples from the code that
// computes them by name, so once any sample exists the two must name the
// same metrics. Without samples (the first iteration failed) every
// metric reads 0.
func (r *result) summarize(defs []benchMetric, samples map[string][]float64) error {
	r.Metrics = make(map[string]metric, len(defs))
	r.spread = make(map[string]quartileSet, len(defs))
	for _, d := range defs {
		xs := samples[d.Name]
		if len(xs) == 0 && len(samples) > 0 {
			return fmt.Errorf("BENCHMARK.json metric %s is not computed", d.Name)
		}
		q := quartileSet{n: len(xs)}
		if len(xs) > 0 {
			q.q1, q.median, q.q3 = quartiles(xs)
		}
		r.Metrics[d.Name] = metric{Value: q.median, Unit: d.Unit}
		r.spread[d.Name] = q
	}
	for name := range samples {
		if _, ok := r.Metrics[name]; !ok {
			return fmt.Errorf("metric %s is computed but not listed in BENCHMARK.json", name)
		}
	}
	return nil
}

// print writes the metric table followed by the result as one JSON line.
func (r *result) print(w io.Writer, title string, defs []benchMetric) error {
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v\n", title, r.Attempted, r.Failed, r.Correct)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tmedian\tq1\tq3\tn\tunit\t")
	for _, d := range defs {
		q := r.spread[d.Name]
		fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%.6g\t%d\t%s\t\n", d.Name, q.median, q.q1, q.q3, q.n, d.Unit)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), with the median in the middle. A single sample is all three.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// benchmarkFile is the part of BENCHMARK.json the driver reads: the
// workload names, and each metric's name, unit, direction and bound.
type benchmarkFile struct {
	Workloads []benchWorkload `json:"workloads"`
	EndToEnd  []benchMetric   `json:"end_to_end"`
	PerLayer  []benchMetric   `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}
