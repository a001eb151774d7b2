package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"comfase/internal/config"
	"comfase/internal/runner"
)

// labelConfig is a matrix whose every experiment exceeds its 100-event
// budget (polled every 64 events): a registry-only family (corruption, expNr 0-1) and a delay
// cell (expNr 2-3).
const labelConfig = `{
  "matrix": {
    "scenarios": [{"name": "platoon", "params": {"totalSimTimeS": 6}}],
    "attacks": [
      {"name": "corruption", "valuesS": {"values": [1]}, "startTimesS": {"values": [2]}, "durationsS": {"values": [1, 2]}},
      {"name": "delay", "valuesS": {"values": [0.5]}, "startTimesS": {"values": [2]}, "durationsS": {"values": [1, 2]}}
    ]
  },
  "runtime": {"eventBudget": 100, "cancelCheckEvents": 64, "maxFailures": -1}
}`

// checkQuarantineLabels fails unless the quarantine JSON lines hold one
// event-budget record per grid point, each labeled with its cell's
// registry name.
func checkQuarantineLabels(t *testing.T, what, jsonl string) {
	t.Helper()
	want := []string{"corruption", "corruption", "delay", "delay"}
	var got []string
	sc := bufio.NewScanner(strings.NewReader(jsonl))
	for sc.Scan() {
		var rec struct {
			Nr     int    `json:"expNr"`
			Attack string `json:"attack"`
			Class  string `json:"class"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("%s: %v in %q", what, err, sc.Text())
		}
		if rec.Class != "event-budget" || rec.Nr != len(got) {
			t.Errorf("%s: record %d is expNr %d class %q, want expNr %d event-budget", what, len(got), rec.Nr, rec.Class, len(got))
		}
		got = append(got, rec.Attack)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s: quarantine labels %q, want %q", what, got, want)
	}
}

// TestQuarantineLabelsRegistryName: a quarantine record names the attack
// by its registry name, for registry-only families too, both in the
// runner's quarantine sink and in the fabric's merged quarantine.
func TestQuarantineLabelsRegistryName(t *testing.T) {
	parsed, err := config.Parse(strings.NewReader(labelConfig))
	if err != nil {
		t.Fatal(err)
	}
	cells, _ := parsed.Grid()
	opts := parsed.Runtime.Options
	var q bytes.Buffer
	opts.Quarantine = runner.NewQuarantineSink(&q)
	if _, err := runner.RunMatrix(context.Background(), cells, opts); err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}
	checkQuarantineLabels(t, "runner", q.String())

	svc, files := singleCampaign(t, ServiceOptions{LeaseSize: 1, LeaseTTL: 5 * time.Second}, []byte(labelConfig), t.TempDir(), false, nil)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- svc.Wait(ctx) }()
	w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Workers: 1, RetryBase: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("service: %v", err)
	}
	checkQuarantineLabels(t, "fabric", readString(t, files.Quarantine))
}
