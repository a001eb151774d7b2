package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"comfase/internal/runner"
)

func bg() context.Context { return context.Background() }

func TestRunUsage(t *testing.T) {
	if err := run(bg(), nil, os.Stdout); err == nil {
		t.Error("no args accepted")
	}
	// submit and campaigns belonged to the deleted multi-campaign queue,
	// merge to the deleted static sharding: each must fail loudly.
	for _, args := range [][]string{{"frobnicate"}, {"submit"}, {"campaigns"}, {"merge", "-out", "m.csv", "a.csv", "b.csv"}} {
		if err := run(bg(), args, os.Stdout); err == nil || !strings.HasPrefix(err.Error(), "usage:") {
			t.Errorf("%v: err = %v, want the usage error", args, err)
		}
	}
	var sb strings.Builder
	if err := run(bg(), []string{"help"}, &sb); err != nil {
		t.Errorf("help: %v", err)
	}
	for _, want := range []string{"golden", "campaign", "serve", "work",
		"-resume", "-coordinator", "-lease-ttl", "-early-exit-hold"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("usage output missing %q: %q", want, sb.String())
		}
	}
	for _, gone := range []string{"-shard", "-early-exit-tolerance", "comfase merge"} {
		if strings.Contains(sb.String(), gone) {
			t.Errorf("usage output still names the removed %q", gone)
		}
	}
}

func TestRunGoldenWithCSV(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "golden.csv")
	var sb strings.Builder
	if err := run(bg(), []string{"golden", "-csv", csvPath}, &sb); err != nil {
		t.Fatalf("golden: %v", err)
	}
	if !strings.Contains(sb.String(), "max deceleration") {
		t.Errorf("golden output = %q", sb.String())
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatalf("read csv: %v", err)
	}
	if !strings.HasPrefix(string(data), "time_s,vehicle,pos_m,speed_mps,accel_mps2") {
		t.Errorf("csv header missing: %.80s", data)
	}
	if lines := strings.Count(string(data), "\n"); lines < 20000 {
		t.Errorf("csv has %d lines, want ~24001 (6000 samples x 4 vehicles)", lines)
	}
}

// writeGridConfig writes a small 4-experiment campaign config.
func writeGridConfig(t *testing.T, dir string) string {
	t.Helper()
	cfgPath := filepath.Join(dir, "exp.json")
	cfg := `{
	  "campaign": {
	    "attack": "delay",
	    "valuesS": {"values": [0.4, 2.0]},
	    "startTimesS": {"values": [18]},
	    "durationsS": {"values": [2, 10]}
	  }
	}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatalf("write config: %v", err)
	}
	return cfgPath
}

func TestRunCampaignFromConfig(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "exp.json")
	cfg := `{
	  "campaign": {
	    "attack": "delay",
	    "valuesS": {"values": [2.0]},
	    "startTimesS": {"values": [18]},
	    "durationsS": {"values": [10]}
	  }
	}`
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatalf("write config: %v", err)
	}
	outPath := filepath.Join(dir, "report.txt")
	var sb strings.Builder
	if err := run(bg(), []string{"campaign", "-config", cfgPath, "-out", outPath}, &sb); err != nil {
		t.Fatalf("campaign: %v", err)
	}
	report, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	for _, want := range []string{"1 experiments", "severe=1", "collider"} {
		if !strings.Contains(string(report), want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestRunCampaignErrors(t *testing.T) {
	if err := run(bg(), []string{"campaign"}, os.Stdout); err == nil {
		t.Error("missing -config accepted")
	}
	if err := run(bg(), []string{"campaign", "-config", "/nonexistent.json"}, os.Stdout); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"campaign": {}}`), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := run(bg(), []string{"campaign", "-config", bad}, os.Stdout); err == nil {
		t.Error("empty campaign accepted")
	}
	cfg := writeGridConfig(t, dir)
	if err := run(bg(), []string{"campaign", "-config", cfg, "-resume"}, os.Stdout); err == nil {
		t.Error("-resume without -results accepted")
	}
	// Removed flags are flag errors, not silently ignored: four processes
	// run with -shard i/4 would otherwise each run the whole grid.
	for _, args := range [][]string{{"-shard", "1/2"}, {"-early-exit-tolerance", "0.01"}} {
		err := run(bg(), append([]string{"campaign", "-config", cfg}, args...), os.Stdout)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("campaign %v: err = %v, want an undefined-flag error", args, err)
		}
	}
}

// TestRunCampaignInterruptAndResume cancels the context mid-campaign
// (the SIGINT path), checks the partial results survive and the exit is
// clean, then resumes to completion and compares against an
// uninterrupted run.
func TestRunCampaignInterruptAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments in -short mode")
	}
	dir := t.TempDir()
	cfg := writeGridConfig(t, dir)

	ref := filepath.Join(dir, "ref.csv")
	if err := run(bg(), []string{"campaign", "-config", cfg, "-results", ref}, os.Stdout); err != nil {
		t.Fatalf("reference campaign: %v", err)
	}

	// Cancel the context up front: the runner aborts before completing
	// the grid, flushes whatever finished, and run() reports the
	// interruption (exit code 2) rather than a hard error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial := filepath.Join(dir, "run.csv")
	var sb strings.Builder
	err := run(ctx, []string{"campaign", "-config", cfg, "-results", partial}, &sb)
	if !errors.Is(err, errInterrupted) {
		t.Fatalf("interrupted campaign returned %v, want errInterrupted", err)
	}
	if exitCode(err) != exitInterrupted {
		t.Fatalf("exitCode(%v) = %d, want %d", err, exitCode(err), exitInterrupted)
	}
	if !strings.Contains(sb.String(), "interrupted") || !strings.Contains(sb.String(), "-resume") {
		t.Errorf("interrupt message missing: %q", sb.String())
	}

	var sb2 strings.Builder
	if err := run(bg(), []string{"campaign", "-config", cfg,
		"-results", partial, "-resume"}, &sb2); err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}
	if !strings.Contains(sb2.String(), "4 experiments") {
		t.Errorf("resumed report incomplete: %q", sb2.String())
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(partial)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Errorf("resumed results differ from uninterrupted run:\nref:\n%s\ngot:\n%s", want, got)
	}
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, exitOK},
		{errors.New("boom"), exitError},
		{fmt.Errorf("campaign: %w", errInterrupted), exitInterrupted},
		{fmt.Errorf("campaign: %w: too many", runner.ErrFailureBudget), exitBudget},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestWatchSignalsForceExit drives the two-stage shutdown: the first
// signal cancels gracefully, the second force-exits with code 130.
func TestWatchSignalsForceExit(t *testing.T) {
	exited := make(chan int, 1)
	orig := forceExit
	forceExit = func(code int) { exited <- code }
	defer func() { forceExit = orig }()

	sigs := make(chan os.Signal, 2)
	cancelled := make(chan struct{})
	go watchSignals(sigs, func() { close(cancelled) })

	sigs <- os.Interrupt
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("first signal did not cancel")
	}
	select {
	case code := <-exited:
		t.Fatalf("first signal force-exited with %d", code)
	default:
	}

	sigs <- os.Interrupt
	select {
	case code := <-exited:
		if code != exitForced {
			t.Errorf("forced exit code = %d, want %d", code, exitForced)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second signal did not force-exit")
	}
}

// TestRunCampaignFailureBudgetCLI drives the containment flags end to
// end: a tiny -event-budget makes every experiment fail, the default
// failure budget aborts with the dedicated exit code, -max-failures -1
// streams past the failures into the quarantine file, and -resume skips
// the quarantined points.
func TestRunCampaignFailureBudgetCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments in -short mode")
	}
	dir := t.TempDir()
	cfg := writeGridConfig(t, dir)
	quarantine := filepath.Join(dir, "quarantine.jsonl")
	results := filepath.Join(dir, "run.csv")

	// Default -max-failures 0: the first persistent failure aborts.
	err := run(bg(), []string{"campaign", "-config", cfg,
		"-event-budget", "100", "-quarantine", quarantine}, &strings.Builder{})
	if !errors.Is(err, runner.ErrFailureBudget) {
		t.Fatalf("fail-fast run returned %v, want ErrFailureBudget", err)
	}
	if exitCode(err) != exitBudget {
		t.Fatalf("exitCode = %d, want %d", exitCode(err), exitBudget)
	}

	// Unlimited budget: the campaign completes and quarantines all 4.
	var sb strings.Builder
	if err := run(bg(), []string{"campaign", "-config", cfg,
		"-event-budget", "100", "-max-failures", "-1",
		"-results", results, "-quarantine", quarantine}, &sb); err != nil {
		t.Fatalf("unlimited-budget run: %v", err)
	}
	if !strings.Contains(sb.String(), "4 experiment(s) quarantined") ||
		!strings.Contains(sb.String(), "event-budget=4") {
		t.Errorf("missing quarantine summary: %q", sb.String())
	}
	recs, err := runner.ReadQuarantineFile(quarantine)
	if err != nil {
		t.Fatalf("ReadQuarantineFile: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("quarantine has %d records, want 4", len(recs))
	}
	for nr, f := range recs {
		if f.Class != "event-budget" {
			t.Errorf("expNr %d class = %q, want event-budget", nr, f.Class)
		}
	}

	// Resume: quarantined points are skipped, nothing is re-run and the
	// quarantine file is not re-appended.
	var sb2 strings.Builder
	if err := run(bg(), []string{"campaign", "-config", cfg,
		"-event-budget", "100", "-max-failures", "0",
		"-results", results, "-quarantine", quarantine, "-resume"}, &sb2); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	recs2, err := runner.ReadQuarantineFile(quarantine)
	if err != nil {
		t.Fatalf("ReadQuarantineFile after resume: %v", err)
	}
	if len(recs2) != 4 {
		t.Errorf("quarantine grew to %d records on resume, want 4", len(recs2))
	}
}
