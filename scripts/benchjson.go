//go:build ignore

// Benchjson converts `go test -bench` text output into machine-readable
// JSON and compares two runs benchstat-style. It exists so the perf
// harness works on machines without golang.org/x/perf/cmd/benchstat
// installed (this repo adds no external dependencies).
//
// Usage:
//
//	go run scripts/benchjson.go -in bench.txt -out BENCH_2026-08-06.json
//	go run scripts/benchjson.go -in bench.txt -compare bench/BENCH_baseline.json
//	go run scripts/benchjson.go -in bench.txt -compare bench/BENCH_baseline.json -check
//
// The JSON carries the per-benchmark median of every metric across
// repeated -count runs (medians are robust against scheduler noise in
// single runs), plus the run context (goos/goarch/pkg/cpu).
//
// With -check (the `make bench-diff` regression gate), the comparison
// FAILS (exit 1) when any shared benchmark regresses by more than
// -threshold percent on ns/op (default 25, sized for run-to-run noise)
// or on allocs/op beyond measurement granularity: the per-op counts
// are averages over b.N, so campaign-scale benchmarks flutter by a few
// parts per million with GC timing (pool refills, map growth
// amortisation); an increase above max(1, 0.1%) allocations is treated
// as real — any genuine hot-path leak adds per-beacon or per-step
// allocations, thousands of times that. -warn-only reports the same
// findings but exits 0, for noisy hosts.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Report is the serialised form of one benchmark run.
type Report struct {
	Context    map[string]string `json:"context"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

// Benchmark is the aggregated result of one benchmark across -count runs.
type Benchmark struct {
	Name string `json:"name"`
	// Runs is the number of -count repetitions aggregated.
	Runs int `json:"runs"`
	// Metrics maps a unit ("ns/op", "B/op", "allocs/op", custom units)
	// to the median value across runs.
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	in := flag.String("in", "", "benchmark text input (default stdin)")
	out := flag.String("out", "", "write aggregated JSON to this file")
	compare := flag.String("compare", "", "baseline JSON to diff the input against")
	check := flag.Bool("check", false, "with -compare: exit 1 on ns/op or allocs/op regressions")
	threshold := flag.Float64("threshold", 25, "with -check: ns/op regression percentage that fails")
	warnOnly := flag.Bool("warn-only", false, "with -check: report regressions but exit 0 (noisy hosts)")
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	rep, err := parse(r)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	var regressions []string
	if *compare != "" {
		data, err := os.ReadFile(*compare)
		if err != nil {
			fatal(err)
		}
		var base Report
		if err := json.Unmarshal(data, &base); err != nil {
			fatal(fmt.Errorf("%s: %w", *compare, err))
		}
		diff(os.Stdout, base, rep)
		if *check {
			regressions = findRegressions(base, rep, *threshold)
		}
	}
	if *out != "" || *compare != "" {
		modeDiff(os.Stdout, rep)
	}
	if *check {
		if *compare == "" {
			fatal(fmt.Errorf("-check requires -compare"))
		}
		if len(regressions) > 0 {
			verdict := "FAIL"
			if *warnOnly {
				verdict = "WARN"
			}
			fmt.Fprintf(os.Stderr, "\nbenchjson: %s — %d regression(s) vs %s:\n", verdict, len(regressions), *compare)
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "  "+r)
			}
			if !*warnOnly {
				os.Exit(1)
			}
		} else {
			fmt.Fprintf(os.Stderr, "\nbenchjson: PASS — no regressions vs %s (ns/op threshold %+.0f%%, allocs/op grain max(1, 0.1%%))\n", *compare, *threshold)
		}
	}
	if *out == "" && *compare == "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// parse reads go-test benchmark output: context header lines
// ("goos: linux") and result lines ("BenchmarkX-8  N  12.3 ns/op ...").
func parse(r io.Reader) (Report, error) {
	rep := Report{Context: map[string]string{}}
	samples := map[string]map[string][]float64{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
				if v, ok := strings.CutPrefix(line, key+": "); ok {
					rep.Context[key] = v
				}
			}
			continue
		}
		fields := strings.Fields(line)
		// name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		// Strip the -GOMAXPROCS suffix so runs on different machines merge.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if _, seen := samples[name]; !seen {
			samples[name] = map[string][]float64{}
			order = append(order, name)
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			samples[name][unit] = append(samples[name][unit], val)
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	if len(order) == 0 {
		return rep, fmt.Errorf("no benchmark result lines found")
	}
	for _, name := range order {
		b := Benchmark{Name: name, Metrics: map[string]float64{}}
		for unit, vals := range samples[name] {
			b.Metrics[unit] = median(vals)
			if len(vals) > b.Runs {
				b.Runs = len(vals)
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep, nil
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// diff prints a benchstat-style old/new/delta table for the metrics both
// reports share. Units where lower is better (all go-bench units) show a
// negative delta as an improvement; for wall-clock metrics the speedup
// column renders the same ratio the way perf reviews quote it
// (old/new, so 2.00x means twice as fast and anything below 1.00x is a
// regression).
func diff(w io.Writer, base, cur Report) {
	baseBy := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	fmt.Fprintf(w, "%-36s %-12s %14s %14s %9s %8s\n", "benchmark", "metric", "old", "new", "delta", "speedup")
	for _, b := range cur.Benchmarks {
		old, ok := baseBy[b.Name]
		if !ok {
			continue
		}
		units := make([]string, 0, len(b.Metrics))
		for unit := range b.Metrics {
			if _, shared := old.Metrics[unit]; shared {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			ov, nv := old.Metrics[unit], b.Metrics[unit]
			delta := "~"
			if ov != 0 {
				delta = fmt.Sprintf("%+.1f%%", (nv-ov)/ov*100)
			}
			speedup := ""
			if unit == "ns/op" && nv != 0 {
				speedup = fmt.Sprintf("%.2fx", ov/nv)
			}
			fmt.Fprintf(w, "%-36s %-12s %14s %14s %9s %8s\n",
				b.Name, unit, formatVal(ov), formatVal(nv), delta, speedup)
		}
	}
}

// findRegressions returns one line per benchmark metric that got worse
// beyond tolerance: ns/op medians more than thresholdPct above the
// baseline, and allocs/op medians above the baseline by more than
// measurement granularity — max(1, 0.1%) allocations, because per-op
// counts are b.N averages that flutter by a few ppm with GC timing on
// campaign-scale benchmarks, while a genuine steady-state leak adds at
// least one allocation per beacon or step (thousands per op).
// Benchmarks present in only one report are skipped: the gate compares
// shared coverage, it does not police benchmark-set drift.
func findRegressions(base, cur Report, thresholdPct float64) []string {
	baseBy := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	var out []string
	for _, b := range cur.Benchmarks {
		old, ok := baseBy[b.Name]
		if !ok {
			continue
		}
		if ov, nv := old.Metrics["ns/op"], b.Metrics["ns/op"]; ov > 0 && nv > 0 {
			if pct := (nv - ov) / ov * 100; pct > thresholdPct {
				out = append(out, fmt.Sprintf("%s ns/op %s -> %s (%+.1f%%, threshold %+.0f%%)",
					b.Name, formatVal(ov), formatVal(nv), pct, thresholdPct))
			}
		}
		if ov, okOld := old.Metrics["allocs/op"]; okOld {
			grain := math.Max(1, ov*0.001)
			if nv, okNew := b.Metrics["allocs/op"]; okNew && nv > ov+grain {
				out = append(out, fmt.Sprintf("%s allocs/op %s -> %s (beyond the max(1, 0.1%%) grain)",
					b.Name, formatVal(ov), formatVal(nv)))
			}
		}
	}
	return out
}

// modePairs lists within-run sub-benchmark comparisons worth quoting.
// The campaign benchmarks run the same grid under several execution
// modes ("reference", "trie", "trie+early-exit"); each pair below isolates
// one optimisation layer, so the ratio old/new is the speedup
// that layer buys on THIS machine — unlike the old-vs-baseline column,
// it never mixes measurements from two different hosts.
var modePairs = []struct{ old, new, label string }{
	{"reference", "trie", "exact fast paths"},
	{"trie", "trie+early-exit", "verdict-aware early exit"},
	{"reference", "trie+early-exit", "all layers"},
}

// modeDiff prints the cross-mode speedup table for every benchmark in
// the report that has the paired sub-benchmarks, using ns/op medians.
func modeDiff(w io.Writer, rep Report) {
	byName := map[string]Benchmark{}
	var parents []string
	seen := map[string]bool{}
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
		if i := strings.LastIndexByte(b.Name, '/'); i > 0 {
			if p := b.Name[:i]; !seen[p] {
				seen[p] = true
				parents = append(parents, p)
			}
		}
	}
	headed := false
	for _, p := range parents {
		for _, mp := range modePairs {
			o, okOld := byName[p+"/"+mp.old]
			n, okNew := byName[p+"/"+mp.new]
			if !okOld || !okNew {
				continue
			}
			ov, nv := o.Metrics["ns/op"], n.Metrics["ns/op"]
			if ov == 0 || nv == 0 {
				continue
			}
			if !headed {
				fmt.Fprintf(w, "\n%-28s %-42s %8s\n", "benchmark", "mode comparison", "speedup")
				headed = true
			}
			fmt.Fprintf(w, "%-28s %-42s %7.2fx\n",
				p, fmt.Sprintf("%s vs %s (%s)", mp.old, mp.new, mp.label), ov/nv)
		}
	}
}

func formatVal(v float64) string {
	if v == float64(int64(v)) && v < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
