package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"comfase/internal/classify"
	"comfase/internal/core"
	"comfase/internal/runner"
)

// syncBuffer is a Writer safe to poll from the test goroutine while a
// subcommand goroutine writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var coordinatorURLRe = regexp.MustCompile(`-coordinator (http://[0-9.]+:[0-9]+)`)

// waitForCoordinatorURL polls the serve goroutine's output until the
// startup banner reveals the bound address.
func waitForCoordinatorURL(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := coordinatorURLRe.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("coordinator never announced its address: %q", out.String())
	return ""
}

// TestRunServeWorkDistributedCLI drives the fabric through the CLI: a
// serve coordinator on a dynamic port, two work processes in-process,
// and the merged CSV compared byte-for-byte against a sequential
// campaign run. It then re-serves with -resume on the completed file,
// which must finish immediately without any workers.
func TestRunServeWorkDistributedCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments in -short mode")
	}
	dir := t.TempDir()
	cfg := writeGridConfig(t, dir)

	ref := filepath.Join(dir, "ref.csv")
	if err := run(bg(), []string{"campaign", "-config", cfg, "-results", ref}, os.Stdout); err != nil {
		t.Fatalf("sequential campaign: %v", err)
	}

	merged := filepath.Join(dir, "merged.csv")
	quarantine := filepath.Join(dir, "quarantine.jsonl")
	serveOut := &syncBuffer{}
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- run(bg(), []string{"serve", "-config", cfg,
			"-results", merged, "-quarantine", quarantine,
			"-addr", "127.0.0.1:0", "-lease-size", "1", "-lease-ttl", "5s"}, serveOut)
	}()
	url := waitForCoordinatorURL(t, serveOut)

	var wg sync.WaitGroup
	workErrs := make([]error, 2)
	for i := range workErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workErrs[i] = run(bg(), []string{"work", "-coordinator", url, "-workers", "2"}, &syncBuffer{})
		}(i)
	}
	wg.Wait()
	for i, err := range workErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve: %v\noutput: %q", err, serveOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("serve did not finish after workers exited: %q", serveOut.String())
	}
	if !strings.Contains(serveOut.String(), "campaign complete") {
		t.Errorf("serve output missing completion banner: %q", serveOut.String())
	}

	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Errorf("fabric-merged CSV differs from sequential run:\nseq:\n%s\nfabric:\n%s", want, got)
	}
	if q, err := os.ReadFile(quarantine); err != nil || len(q) != 0 {
		t.Errorf("quarantine = %q, %v; want empty file", q, err)
	}

	// Resume on a complete file: the grid is already merged, so serve
	// exits successfully without a single worker connecting.
	var resumeOut syncBuffer
	if err := run(bg(), []string{"serve", "-config", cfg,
		"-results", merged, "-quarantine", quarantine,
		"-addr", "127.0.0.1:0", "-resume"}, &resumeOut); err != nil {
		t.Fatalf("resume on complete file: %v", err)
	}
	got2, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(got2) != string(want) {
		t.Errorf("resume on complete file rewrote results:\nbefore:\n%s\nafter:\n%s", want, got2)
	}
}

// TestRunServeWorkRepeatedCleanExit is the shutdown regression drill:
// `serve -config` and two `work` processes drain a small grid, again and
// again. The coordinator must keep its socket open until the last Done
// reply is out, so every worker exits cleanly (none ends "coordinator
// unreachable"), serve finishes, and the merged CSV is byte-identical to
// `comfase campaign` each time.
func TestRunServeWorkRepeatedCleanExit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments in -short mode")
	}
	dir := t.TempDir()
	cfg := writeGridConfig(t, dir)
	ref := filepath.Join(dir, "ref.csv")
	if err := run(bg(), []string{"campaign", "-config", cfg, "-results", ref}, os.Stdout); err != nil {
		t.Fatalf("sequential campaign: %v", err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 20; iter++ {
		merged := filepath.Join(dir, "merged.csv")
		serveOut := &syncBuffer{}
		serveErr := make(chan error, 1)
		go func() {
			serveErr <- run(bg(), []string{"serve", "-config", cfg, "-results", merged,
				"-addr", "127.0.0.1:0", "-lease-size", "1"}, serveOut)
		}()
		url := waitForCoordinatorURL(t, serveOut)
		var wg sync.WaitGroup
		workErrs := make([]error, 2)
		for i := range workErrs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				workErrs[i] = run(bg(), []string{"work", "-coordinator", url, "-workers", "1",
					"-max-coordinator-retries", "2", "-retry-base", "10ms"}, &syncBuffer{})
			}(i)
		}
		wg.Wait()
		for i, err := range workErrs {
			if err != nil {
				t.Fatalf("iteration %d: worker %d: %v", iter, i, err)
			}
		}
		select {
		case err := <-serveErr:
			if err != nil {
				t.Fatalf("iteration %d: serve: %v\noutput: %q", iter, err, serveOut.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("iteration %d: serve did not finish after workers exited: %q", iter, serveOut.String())
		}
		got, err := os.ReadFile(merged)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("iteration %d: fabric-merged CSV differs from sequential run:\nseq:\n%s\nfabric:\n%s", iter, want, got)
		}
	}
}

// TestRunServeDrainOnCancel covers the SIGINT path: a canceled context
// drains the coordinator, which exits with the interrupted code and a
// -resume hint.
func TestRunServeDrainOnCancel(t *testing.T) {
	dir := t.TempDir()
	cfg := writeGridConfig(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out syncBuffer
	err := run(ctx, []string{"serve", "-config", cfg,
		"-results", filepath.Join(dir, "m.csv"), "-addr", "127.0.0.1:0"}, &out)
	if exitCode(err) != exitInterrupted {
		t.Fatalf("drained serve exit = %d (%v), want %d", exitCode(err), err, exitInterrupted)
	}
	if !strings.Contains(out.String(), "-resume") {
		t.Errorf("drain message missing resume hint: %q", out.String())
	}
}

func TestRunServeWorkErrors(t *testing.T) {
	dir := t.TempDir()
	cfg := writeGridConfig(t, dir)
	results := filepath.Join(dir, "m.csv")
	if err := run(bg(), []string{"serve", "-results", results}, os.Stdout); err == nil {
		t.Error("serve without -config accepted")
	}
	if err := run(bg(), []string{"serve", "-config", cfg}, os.Stdout); err == nil {
		t.Error("serve without -results accepted")
	}
	if err := run(bg(), []string{"serve", "-config", "/nonexistent.json", "-results", results}, os.Stdout); err == nil {
		t.Error("serve with missing config accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"campaign": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bg(), []string{"serve", "-config", empty, "-results", results}, os.Stdout); err == nil {
		t.Error("serve with empty grid accepted")
	}

	// A results file with a hole is not a coordinator output: resume must
	// refuse rather than silently discard the out-of-prefix rows.
	gap := filepath.Join(dir, "gap.csv")
	var buf bytes.Buffer
	sink := runner.NewCSVSink(&buf)
	for _, nr := range []int{0, 2} {
		res := core.ExperimentResult{
			Spec:    core.ExperimentSpec{Nr: nr, Attack: "delay"},
			Outcome: classify.NonEffective,
		}
		if err := sink.Put(res); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(gap, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(bg(), []string{"serve", "-config", cfg, "-results", gap,
		"-addr", "127.0.0.1:0", "-resume"}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "contiguous") {
		t.Errorf("resume on gapped results = %v, want contiguity error", err)
	}

	if err := run(bg(), []string{"work"}, os.Stdout); err == nil {
		t.Error("work without -coordinator accepted")
	}
	if err := run(bg(), []string{"work", "-config", "/nonexistent.json"}, os.Stdout); err == nil {
		t.Error("work with missing config accepted")
	}
}

// TestRunMergeQuarantineCLI merges per-worker quarantine files through
// the CLI and checks grid ordering, plus the flag-validation paths.
func TestRunMergeQuarantineCLI(t *testing.T) {
	dir := t.TempDir()
	recs := []core.ExperimentFailure{
		{Nr: 5, Attack: "delay", Class: "panic", Error: "boom"},
		{Nr: 1, Attack: "delay", Class: "timeout", Error: "slow"},
		{Nr: 3, Attack: "delay", Class: "invariant", Error: "NaN"},
	}
	write := func(name string, failures ...core.ExperimentFailure) string {
		t.Helper()
		var buf bytes.Buffer
		sink := runner.NewQuarantineSink(&buf)
		for _, f := range failures {
			if err := sink.Put(f); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", recs[0])
	b := write("b.jsonl", recs[1], recs[2])

	out := filepath.Join(dir, "merged.jsonl")
	var sb strings.Builder
	if err := run(bg(), []string{"merge",
		"-quarantine", a, "-quarantine", b, "-quarantine-out", out}, &sb); err != nil {
		t.Fatalf("merge -quarantine: %v", err)
	}
	if !strings.Contains(sb.String(), "merged 2 quarantine files") {
		t.Errorf("merge output = %q", sb.String())
	}
	got, err := runner.ReadQuarantineFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("merged quarantine has %d records, want 3", len(got))
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		for nr, f := range got {
			if strings.Contains(line, `"`+f.Class+`"`) {
				order = append(order, nr)
			}
		}
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Errorf("merged quarantine out of grid order: %v", order)
		}
	}

	if err := run(bg(), []string{"merge", "-quarantine", a}, os.Stdout); err == nil {
		t.Error("merge -quarantine without -quarantine-out accepted")
	}
}
