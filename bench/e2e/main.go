// Command e2e is the end-to-end benchmark of comfase. It builds
// ./cmd/comfase from the checkout, writes a workload's campaign config
// from the seed, drains it through the CLI as subprocesses timed from
// outside, checks every results file against an oracle, and prints each
// end-to-end metric by name and unit, with the result as a JSON object
// on the last line. With -trace 1 it runs the same workload in-process
// at one worker thread, timing every layer boundary, and prints the
// per-layer ledger instead.
//
// Run it from anywhere through run.sh, which builds the driver and starts
// it in the repository root:
//
//	bench/e2e/run.sh -workload paper-delay -seed 1 -seconds 30 -trace 0
//	bench/e2e/run.sh -workload platoon-matrix -trace 1
//	bench/e2e/run.sh -set A.json -runs 10 -seed 1
//	bench/e2e/run.sh -compare A.json B.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
)

// outDir holds the built program and per-run scratch directories; it is
// relative to the repository root and ignored by git.
const outDir = ".bench_build/e2e"

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run; empty runs every workload once")
	seed := fs.Uint64("seed", pinSeed, "seed the workload config is generated from (the first seed with -set)")
	seconds := fs.Float64("seconds", 30, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs the traced in-process ledger and prints the per-layer metrics")
	setPath := fs.String("set", "", "run -runs seeds of every workload, interleaved, and write the set to this JSON file")
	runs := fs.Int("runs", 10, "seeds per workload with -set")
	compare := fs.Bool("compare", false, "compare the two set files given as arguments within the BENCHMARK.json bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2e: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "e2e: -seconds and -runs must be positive")
		return 2
	}
	for _, p := range []string{"go.mod", "cmd/comfase", "BENCHMARK.json"} {
		if _, err := os.Stat(p); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %v; run from the repository root (bench/e2e/run.sh does)\n", err)
			return 1
		}
	}
	// BENCHMARK.json names the workloads and the metrics with their units,
	// directions and bounds; the driver holds only the code behind them.
	bench, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *compare {
		return runCompare(bench, fs.Args())
	}
	if *setPath != "" || *name == "" {
		names := []string{*name}
		if *name == "" {
			names = names[:0]
			for _, w := range bench.Workloads {
				names = append(names, w.Name)
			}
		}
		n := 1
		if *setPath != "" {
			n = *runs
		}
		ok, err := runSet(ctx, names, *seed, n, *seconds, *trace, *setPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 2
	}
	defs := bench.EndToEnd
	if *trace == 1 {
		defs = bench.PerLayer
	}
	return runOne(ctx, w, *seed, *seconds, *trace, defs)
}

// runOne measures one workload for about seconds and prints its result
// with the metrics defs; it exits 1 without a result line when the run
// could not be measured, and 1 after the result line when an output was
// wrong.
func runOne(ctx context.Context, w workload, seed uint64, seconds float64, trace int, defs []benchMetric) int {
	bin, err := buildComfase(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	dir := filepath.Join(outDir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	var res *result
	if trace == 1 {
		res, err = traceRun(ctx, bin, w, seed, seconds, dir, defs)
	} else {
		res, err = e2eRun(ctx, bin, w, seed, seconds, dir, defs)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", w.name, err)
		return 1
	}
	if err := res.print(os.Stdout, fmt.Sprintf("%s seed %d", w.name, seed), defs); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "e2e: %s: wrong outputs; files kept in %s\n", w.name, dir)
		return 1
	}
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
	}
	return 0
}

// buildComfase builds the CLI from the checkout; build time is not
// measured.
func buildComfase(ctx context.Context) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "comfase"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/comfase")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build ./cmd/comfase: %w", err)
	}
	return bin, nil
}

func runCompare(bench *benchmarkFile, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2e -compare A.json B.json")
		return 2
	}
	var sets [2]*setFile
	var err error
	for i, path := range args {
		if sets[i], err = readSet(path); err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			return 1
		}
	}
	if !compareSets(os.Stdout, bench, sets[0], sets[1]) {
		fmt.Fprintln(os.Stderr, "e2e: the sets disagree or cannot be resolved within the bounds")
		return 1
	}
	return 0
}
