package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// setFile is a set of runs: several seeds of every workload, interleaved
// so host drift hits all workloads alike, with the host they ran on.
type setFile struct {
	Host hostInfo `json:"host"`
	Runs []setRun `json:"runs"`
}

type hostInfo struct {
	Date            string  `json:"date"`
	Nproc           int     `json:"nproc"`
	CPU             string  `json:"cpu"`
	Go              string  `json:"go"`
	Commit          string  `json:"commit"`
	RunsPerWorkload int     `json:"runs_per_workload"`
	Seconds         float64 `json:"seconds"`
	Trace           int     `json:"trace"`
}

type setRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Result   result `json:"result"`
	// Log is the run's standard output before the result line: the
	// metric table with quartiles and, for traced runs, the span summary.
	Log []string `json:"log"`
}

// runSet runs every named workload once per seed, seeds firstSeed to
// firstSeed+runs-1, each run a child process of this driver exactly as
// a single `-workload` invocation. With out set, the set is rewritten
// after every run. It reports whether every run was correct.
func runSet(ctx context.Context, names []string, firstSeed uint64, runs int, seconds float64, trace int, out string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	set := setFile{Host: describeHost(runs, seconds, trace)}
	ok := true
	for r := 0; r < runs; r++ {
		seed := firstSeed + uint64(r)
		for _, name := range names {
			cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			os.Stdout.Write(stdout)
			if ctx.Err() != nil {
				return false, ctx.Err()
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return false, fmt.Errorf("%s seed %d printed no result (%v): %v", name, seed, runErr, err)
			}
			ok = ok && res.Correct
			set.Runs = append(set.Runs, setRun{Workload: name, Seed: seed, Result: res, Log: lines[:len(lines)-1]})
			if out != "" {
				if err := writeJSON(out, set); err != nil {
					return false, err
				}
			}
		}
	}
	return ok, nil
}

func describeHost(runs int, seconds float64, trace int) hostInfo {
	h := hostInfo{
		Date:            time.Now().UTC().Format("2006-01-02"),
		Nproc:           runtime.NumCPU(),
		CPU:             "unknown",
		Go:              runtime.Version(),
		Commit:          "unknown",
		RunsPerWorkload: runs,
		Seconds:         seconds,
		Trace:           trace,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if rev, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(rev))
	}
	return h
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric of one workload over a set's correct runs.
func (s *setFile) values(workload, name string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Result.Correct {
			if m, ok := r.Result.Metrics[name]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// spread is the distance between the first and third quartile as a share
// of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// compareSets checks, for every workload and end-to-end metric, that set
// b's median is no worse than set a's by more than the metric's bound.
// A metric whose spread in either set exceeds its bound is unresolved:
// the sets cannot show agreement. It reports whether every metric agreed
// (a change for the better by more than the bound is reported but
// counts as agreement).
func compareSets(w io.Writer, bench *benchmarkFile, a, b *setFile) bool {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tspread A\tmedian B\tspread B\tchange\tbound\tverdict")
	ok := true
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			xa, xb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t%.3g\tmissing\n", wl.Name, m.Name, m.Bound)
				ok = false
				continue
			}
			ma, mb := median(xa), median(xb)
			sa, sb := spread(xa), spread(xb)
			change := (mb - ma) / math.Abs(ma)
			gain := change
			if m.Better == "lower" {
				gain = -change
			}
			verdict := "agree"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case gain < -m.Bound:
				verdict = "worse"
			case gain > m.Bound:
				verdict = "better"
			}
			if verdict == "unresolved" || verdict == "worse" {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.3f\t%.6g\t%.3f\t%+.3f\t%.3g\t%s\n",
				wl.Name, m.Name, ma, sa, mb, sb, change, m.Bound, verdict)
		}
	}
	tw.Flush()
	return ok
}
