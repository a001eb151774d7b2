package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"comfase/internal/analysis"
	"comfase/internal/core"
	"comfase/internal/obs"
	"comfase/internal/runner"
)

// postProto drives one protocol endpoint of a service handler in-process
// and decodes the response.
func postProto(t *testing.T, h http.Handler, path string, req, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code == http.StatusOK && resp != nil {
		if err := json.Unmarshal(w.Body.Bytes(), resp); err != nil {
			t.Fatalf("%s: malformed response %q: %v", path, w.Body.String(), err)
		}
	}
	return w.Code
}

// register registers a worker and returns its service-assigned ID.
func register(t *testing.T, h http.Handler) string {
	t.Helper()
	var resp RegisterResponse
	if code := postProto(t, h, PathRegister, RegisterRequest{Host: "test"}, &resp); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}
	return resp.WorkerID
}

// lease acquires the next range for the worker, failing unless granted.
func lease(t *testing.T, h http.Handler, worker string) Lease {
	t.Helper()
	var resp LeaseResponse
	if code := postProto(t, h, PathLease, LeaseRequest{WorkerID: worker}, &resp); code != http.StatusOK {
		t.Fatalf("lease: HTTP %d", code)
	}
	if !resp.Granted {
		t.Fatalf("lease not granted: %+v", resp)
	}
	return Lease{Chunk: resp.Chunk, From: resp.From, To: resp.To, Gen: resp.Gen}
}

// testRows builds marker result rows for [from, to): each row's fields
// are (expNr, tag), so merged output identifies which execution won.
func testRows(from, to int, tag string) []ResultRow {
	var rows []ResultRow
	for nr := from; nr < to; nr++ {
		rows = append(rows, ResultRow{Nr: nr, Fields: []string{strconv.Itoa(nr), tag}})
	}
	return rows
}

// gridConfig is a delay campaign config with n grid points (one value,
// one start, n durations) and the given failure budget. The service
// parses it for the grid geometry; these tests never execute it.
func gridConfig(n, maxFailures int) []byte {
	durations := make([]string, n)
	for i := range durations {
		durations[i] = strconv.Itoa(i + 1)
	}
	return []byte(fmt.Sprintf(`{
  "campaign": {
    "attack": "delay",
    "valuesS": {"values": [0.3]},
    "startTimesS": {"values": [2]},
    "durationsS": {"values": [%s]}
  },
  "runtime": {"maxFailures": %d}
}`, strings.Join(durations, ", "), maxFailures))
}

// legacyHeader is the single-campaign results CSV header line.
var legacyHeader = strings.Join(analysis.ExperimentCSVHeader(), ",") + "\n"

// singleCampaign builds a service the way `comfase serve -config` does:
// its results and quarantine files in dir, maxFailures overriding the
// config's budget like -max-failures.
func singleCampaign(t *testing.T, opts ServiceOptions, cfg []byte, dir string, resume bool, maxFailures *int) (*Service, Campaign) {
	t.Helper()
	c := Campaign{
		Config:      cfg,
		Results:     filepath.Join(dir, "results.csv"),
		Quarantine:  filepath.Join(dir, "quarantine.jsonl"),
		Resume:      resume,
		MaxFailures: maxFailures,
	}
	svc, err := NewService(c, opts)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	return svc, c
}

// readString returns a file's contents, failing the test on error.
func readString(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// waitDone runs svc.Wait with a deadline and returns its error.
func waitDone(t *testing.T, svc *Service) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- svc.Wait(ctx) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		t.Fatal("service did not finish in time")
		return nil
	}
}

// legacyRows fabricates schema-valid legacy result records for [from,
// to), so the files a service writes stay parseable by the resume
// path's strict reader.
func legacyRows(from, to int) []ResultRow {
	var rows []ResultRow
	for nr := from; nr < to; nr++ {
		rows = append(rows, ResultRow{Nr: nr, Fields: []string{
			strconv.Itoa(nr), "delay", "0.3", "2.000", "1.000",
			"benign", "0.0000", "0.0000", "0", "",
		}})
	}
	return rows
}

// legacyCSV renders legacyRows(from, to) under the legacy header, as
// the release frontier writes them.
func legacyCSV(from, to int) string {
	var b strings.Builder
	b.WriteString(legacyHeader)
	for _, r := range legacyRows(from, to) {
		b.WriteString(strings.Join(r.Fields, ",") + "\n")
	}
	return b.String()
}

// failureRecord is a schema-valid quarantine record for expNr nr.
func failureRecord(t *testing.T, nr int) json.RawMessage {
	t.Helper()
	rec, err := json.Marshal(core.ExperimentFailure{
		Nr: nr, Attack: "delay", Value: 0.3, StartS: 2, DurationS: 1,
		Class: "panic", Error: "injected", Attempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// completeLease posts a full completion for the lease and returns the
// response.
func completeLease(t *testing.T, h http.Handler, worker string, l Lease) CompleteResponse {
	t.Helper()
	var resp CompleteResponse
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: worker, Chunk: l.Chunk, Gen: l.Gen,
		Rows: legacyRows(l.From, l.To),
	}, &resp)
	return resp
}

// TestServiceConfigInRegisterResponse pins where a worker gets the
// campaign config: the register response carries the config file
// (compacted, as JSON re-encodes it), and lease grants carry none.
func TestServiceConfigInRegisterResponse(t *testing.T) {
	cfg := gridConfig(4, -1)
	svc, _ := singleCampaign(t, ServiceOptions{LeaseSize: 2}, cfg, t.TempDir(), false, nil)
	h := svc.Handler()
	var reg RegisterResponse
	if code := postProto(t, h, PathRegister, RegisterRequest{Host: "test"}, &reg); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reg.Config, want.Bytes()) {
		t.Fatalf("register response config = %s, want %s", reg.Config, want.Bytes())
	}
	r := httptest.NewRequest(http.MethodPost, PathLease, strings.NewReader(`{"workerID":"`+reg.WorkerID+`"}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	// The strict decoder rejects any field LeaseResponse lacks, a config
	// or campaign ID included.
	var lr LeaseResponse
	if err := decodeStrict(w.Body.Bytes(), &lr); err != nil || !lr.Granted {
		t.Fatalf("lease answer %s: granted %v, %v", w.Body.Bytes(), lr.Granted, err)
	}
}

// TestServiceResumeQuarantineOnlyPrefix pins resume of a merged prefix
// that is all quarantine: the results file is still empty (the header
// waits for the first row), yet the quarantine record must survive the
// restart, and the header must appear exactly once when rows follow.
func TestServiceResumeQuarantineOnlyPrefix(t *testing.T) {
	dir := t.TempDir()
	opts := ServiceOptions{LeaseSize: 1, LeaseTTL: 10 * time.Second}
	svc, files := singleCampaign(t, opts, gridConfig(3, -1), dir, false, nil)
	h := svc.Handler()
	w1 := register(t, h)
	l := lease(t, h, w1)
	rec := failureRecord(t, 0)
	var cr CompleteResponse
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w1, Chunk: l.Chunk, Gen: l.Gen,
		Failures: []FailureRow{{Nr: 0, Record: rec}},
	}, &cr)
	if !cr.OK {
		t.Fatalf("failure-only completion rejected: %+v", cr)
	}
	svc.Drain()
	svc.finish(nil) // release sinks without running Wait
	wantQ := string(rec) + "\n"
	if got := readString(t, files.Quarantine); got != wantQ {
		t.Fatalf("quarantine before resume = %q, want %q", got, wantQ)
	}

	resumed, _ := singleCampaign(t, opts, gridConfig(3, -1), dir, true, nil)
	if st := resumed.Status(); st.Merged != 1 {
		t.Fatalf("resumed status = %+v, want 1 merged", st)
	}
	if got := readString(t, files.Quarantine); got != wantQ {
		t.Fatalf("resume erased the merged quarantine prefix: %q, want %q", got, wantQ)
	}
	h = resumed.Handler()
	w2 := register(t, h)
	for i := 0; i < 2; i++ {
		if resp := completeLease(t, h, w2, lease(t, h, w2)); !resp.OK {
			t.Fatalf("completion %d rejected: %+v", i, resp)
		}
	}
	resumed.finish(nil)
	if got, want := readString(t, files.Results), legacyCSV(1, 3); got != want {
		t.Errorf("results after resume = %q, want %q", got, want)
	}
	if got := readString(t, files.Quarantine); got != wantQ {
		t.Errorf("quarantine after resume = %q, want %q", got, wantQ)
	}
	if st := resumed.Status(); st.Merged != 3 {
		t.Errorf("status after resume = %+v, want 3 merged", st)
	}
}

func TestServiceFrontierOrder(t *testing.T) {
	svc, files := singleCampaign(t, ServiceOptions{LeaseSize: 2}, gridConfig(6, 0), t.TempDir(), false, nil)
	h := svc.Handler()
	w1 := register(t, h)
	l0 := lease(t, h, w1) // [0,2)
	l1 := lease(t, h, w1) // [2,4)
	l2 := lease(t, h, w1) // [4,6)

	complete := func(l Lease) CompleteResponse {
		var resp CompleteResponse
		code := postProto(t, h, PathComplete, CompleteRequest{
			WorkerID: w1, Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To, "v"),
		}, &resp)
		if code != http.StatusOK {
			t.Fatalf("complete chunk %d: HTTP %d", l.Chunk, code)
		}
		return resp
	}

	// Out-of-order completion: the frontier must hold everything back
	// until chunk 0 lands, then stream in grid order.
	complete(l2)
	if got := readString(t, files.Results); got != "" {
		t.Fatalf("rows written before the frontier reached them: %q", got)
	}
	complete(l0)
	if got := svc.Status().Merged; got != 2 {
		t.Fatalf("after chunk 0: merged %d, want 2 (chunk 2 still buffered)", got)
	}
	complete(l1)
	if err := waitDone(t, svc); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	var want strings.Builder
	want.WriteString(legacyHeader)
	for nr := 0; nr < 6; nr++ {
		fmt.Fprintf(&want, "%d,v\n", nr)
	}
	if got := readString(t, files.Results); got != want.String() {
		t.Errorf("merged CSV:\n%q\nwant:\n%q", got, want.String())
	}
}

// TestServiceStaleCompletionExactlyOnce is the acceptance check for
// re-leased ranges: a late completion from the presumed-dead worker is
// rejected by the generation counter, the re-execution's rows are merged,
// and every grid point lands in the output exactly once.
func TestServiceStaleCompletionExactlyOnce(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	svc, files := singleCampaign(t, ServiceOptions{
		LeaseSize: 2, LeaseTTL: 10 * time.Second, Now: clock.Now, Metrics: reg,
	}, gridConfig(4, -1), t.TempDir(), false, nil)
	h := svc.Handler()
	w1 := register(t, h)
	w2 := register(t, h)

	dead := lease(t, h, w1) // w1 takes [0,2) ... and goes silent
	clock.Advance(11 * time.Second)

	release := lease(t, h, w2) // expired, so w2 is re-granted [0,2)
	if release.Chunk != dead.Chunk || release.Gen != dead.Gen+1 {
		t.Fatalf("re-lease = %+v, want chunk %d gen %d", release, dead.Chunk, dead.Gen+1)
	}

	// w1 wakes up and tries to renew, then complete: both stale.
	var rr ReportResponse
	postProto(t, h, PathReport, ReportRequest{WorkerID: w1, Chunk: dead.Chunk, Gen: dead.Gen}, &rr)
	if rr.OK || !rr.Cancel {
		t.Fatalf("stale report answered %+v, want cancel", rr)
	}
	var cr CompleteResponse
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w1, Chunk: dead.Chunk, Gen: dead.Gen, Rows: testRows(dead.From, dead.To, "dead"),
	}, &cr)
	if cr.OK || !cr.Stale {
		t.Fatalf("stale completion answered %+v, want stale", cr)
	}
	if got := readString(t, files.Results); got != "" {
		t.Fatalf("stale rows were merged: %q", got)
	}

	// The live executions win.
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w2, Chunk: release.Chunk, Gen: release.Gen, Rows: testRows(release.From, release.To, "live"),
	}, &cr)
	if !cr.OK {
		t.Fatalf("live completion rejected: %+v", cr)
	}
	rest := lease(t, h, w2)
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w2, Chunk: rest.Chunk, Gen: rest.Gen, Rows: testRows(rest.From, rest.To, "live"),
	}, &cr)
	if err := waitDone(t, svc); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	out := strings.TrimPrefix(readString(t, files.Results), legacyHeader)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("merged %d rows, want 4 (exactly once each): %q", len(lines), out)
	}
	for nr, line := range lines {
		if line != fmt.Sprintf("%d,live", nr) {
			t.Errorf("row %d = %q, want the re-execution's row", nr, line)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["fabric.leases_expired"] == 0 || snap.Counters["fabric.leases_released"] == 0 {
		t.Errorf("expiry metrics not recorded: %v", snap.Counters)
	}
	if snap.Counters["fabric.stale_rejected"] == 0 {
		t.Errorf("stale rejection not counted: %v", snap.Counters)
	}
	if snap.Counters["fabric.rows_merged"] != 4 {
		t.Errorf("merge counters = %v, want 4 rows merged", snap.Counters)
	}
}

func TestServiceCoverageRejected(t *testing.T) {
	svc, files := singleCampaign(t, ServiceOptions{LeaseSize: 2}, gridConfig(4, 0), t.TempDir(), false, nil)
	h := svc.Handler()
	w1 := register(t, h)
	l := lease(t, h, w1)

	bad := []CompleteRequest{
		// Missing expNr 1.
		{WorkerID: w1, Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.From+1, "v")},
		// ExpNr outside the range.
		{WorkerID: w1, Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To+1, "v")},
		// Duplicated as both result and failure.
		{WorkerID: w1, Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To, "v"),
			Failures: []FailureRow{{Nr: l.From, Record: json.RawMessage(`{}`)}}},
	}
	for i, req := range bad {
		if code := postProto(t, h, PathComplete, req, nil); code != http.StatusBadRequest {
			t.Errorf("bad completion %d: HTTP %d, want 400", i, code)
		}
	}
	if got := readString(t, files.Results); got != "" {
		t.Fatalf("bad completions wrote rows: %q", got)
	}
	// The lease survived the garbage: a correct completion still lands.
	var cr CompleteResponse
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w1, Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To, "v"),
	}, &cr)
	if !cr.OK {
		t.Fatalf("correct completion after rejections failed: %+v", cr)
	}
}

func TestServiceResumePrefix(t *testing.T) {
	dir := t.TempDir()
	prior := legacyCSV(0, 3)
	if err := os.WriteFile(filepath.Join(dir, "results.csv"), []byte(prior), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, files := singleCampaign(t, ServiceOptions{LeaseSize: 2}, gridConfig(6, 0), dir, true, nil)
	if got := svc.Status().Merged; got != 3 {
		t.Fatalf("resumed Merged = %d, want 3", got)
	}
	h := svc.Handler()
	w1 := register(t, h)
	l := lease(t, h, w1)
	if l.From != 3 || l.To != 4 {
		t.Fatalf("first lease after resume = [%d,%d), want the trimmed [3,4)", l.From, l.To)
	}
	var cr CompleteResponse
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w1, Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To, "v"),
	}, &cr)
	l2 := lease(t, h, w1)
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w1, Chunk: l2.Chunk, Gen: l2.Gen, Rows: testRows(l2.From, l2.To, "v"),
	}, &cr)
	if err := waitDone(t, svc); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	want := prior + "3,v\n4,v\n5,v\n"
	if got := readString(t, files.Results); got != want {
		t.Errorf("resumed output = %q, want only the un-resumed rows appended: %q", got, want)
	}
}

func TestServiceResumeComplete(t *testing.T) {
	dir := t.TempDir()
	prior := legacyCSV(0, 4)
	if err := os.WriteFile(filepath.Join(dir, "results.csv"), []byte(prior), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, files := singleCampaign(t, ServiceOptions{LeaseSize: 2}, gridConfig(4, 0), dir, true, nil)
	if err := waitDone(t, svc); err != nil {
		t.Fatalf("Wait on a fully resumed grid: %v", err)
	}
	if got := readString(t, files.Results); got != prior {
		t.Errorf("fully resumed grid rewrote results: %q", got)
	}
}

func TestServiceQuarantineMergeAndBudget(t *testing.T) {
	svc, files := singleCampaign(t, ServiceOptions{LeaseSize: 4}, gridConfig(4, 1), t.TempDir(), false, nil)
	h := svc.Handler()
	w1 := register(t, h)
	l := lease(t, h, w1)
	// 4 points: results at 0 and 2, failures at 1 and 3 — one over the
	// budget of 1.
	var cr CompleteResponse
	code := postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w1, Chunk: l.Chunk, Gen: l.Gen,
		Rows: []ResultRow{
			{Nr: 0, Fields: []string{"0", "v"}},
			{Nr: 2, Fields: []string{"2", "v"}},
		},
		Failures: []FailureRow{
			{Nr: 1, Record: json.RawMessage(`{"expNr":1}`)},
			{Nr: 3, Record: json.RawMessage(`{"expNr":3}`)},
		},
	}, &cr)
	if code != http.StatusOK || !cr.OK {
		t.Fatalf("completion rejected: HTTP %d %+v", code, cr)
	}
	err := waitDone(t, svc)
	if !errors.Is(err, runner.ErrFailureBudget) {
		t.Fatalf("Wait = %v, want ErrFailureBudget", err)
	}
	// The accepted records are durable despite the budget abort, and the
	// quarantine stream is grid-ordered.
	if got, want := readString(t, files.Results), legacyHeader+"0,v\n2,v\n"; got != want {
		t.Errorf("results = %q, want %q", got, want)
	}
	if got, want := readString(t, files.Quarantine), `{"expNr":1}`+"\n"+`{"expNr":3}`+"\n"; got != want {
		t.Errorf("quarantine = %q, want %q", got, want)
	}
}

func TestServiceDrainWithoutWorkers(t *testing.T) {
	svc, _ := singleCampaign(t, ServiceOptions{LeaseSize: 2}, gridConfig(4, 0), t.TempDir(), false, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // immediate drain: nothing leased, nothing done
	err := svc.Wait(ctx)
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("Wait = %v, want ErrDrained", err)
	}
}

// matrixConfig1 is a one-point matrix campaign, for the matrix schema.
const matrixConfig1 = `{"matrix": {
  "scenarios": [{"name": "platoon"}],
  "attacks": [{"name": "delay", "valuesS": {"values": [0.5]}, "startTimesS": {"values": [1]}, "durationsS": {"values": [1]}}]},
  "runtime": {"maxFailures": -1}}`

// TestServiceHeaderSchema pins the lazy-header contract: the
// schema-correct header is written immediately before the first
// released row — and never otherwise, so an all-quarantined grid or a
// resume of an already-complete grid leaves the results file untouched,
// exactly like runner.CSVSink.
func TestServiceHeaderSchema(t *testing.T) {
	runGrid := func(cfg []byte, fail bool) string {
		t.Helper()
		svc, files := singleCampaign(t, ServiceOptions{LeaseSize: 1}, cfg, t.TempDir(), false, nil)
		h := svc.Handler()
		w1 := register(t, h)
		l := lease(t, h, w1)
		req := CompleteRequest{WorkerID: w1, Chunk: l.Chunk, Gen: l.Gen}
		if fail {
			req.Failures = []FailureRow{{Nr: 0, Record: []byte(`{"expNr":0}`)}}
		} else {
			req.Rows = testRows(0, 1, "v")
		}
		var resp CompleteResponse
		postProto(t, h, PathComplete, req, &resp)
		if !resp.OK {
			t.Fatalf("complete rejected: %+v", resp)
		}
		if err := waitDone(t, svc); err != nil {
			t.Fatal(err)
		}
		return readString(t, files.Results)
	}

	if got := runGrid(gridConfig(1, -1), false); got != legacyHeader+"0,v\n" {
		t.Errorf("legacy output = %q, want header+row", got)
	}
	matrixHeader := strings.Join(analysis.MatrixCSVHeader(), ",") + "\n"
	if got := runGrid([]byte(matrixConfig1), false); got != matrixHeader+"0,v\n" {
		t.Errorf("matrix output = %q, want header+row", got)
	}
	// All experiments quarantined: no rows, so no header either.
	if got := runGrid(gridConfig(1, -1), true); got != "" {
		t.Errorf("all-failure output = %q, want empty (lazy header)", got)
	}
	// Resuming a grid completed by quarantine alone must not write a
	// header into the still-empty results file.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "quarantine.jsonl"), append(failureRecord(t, 0), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, files := singleCampaign(t, ServiceOptions{}, gridConfig(1, -1), dir, true, nil)
	if err := waitDone(t, svc); err != nil {
		t.Fatal(err)
	}
	if got := readString(t, files.Results); got != "" {
		t.Errorf("resume-complete output = %q, want empty", got)
	}
}

func TestServiceStatus(t *testing.T) {
	svc, _ := singleCampaign(t, ServiceOptions{LeaseSize: 2}, gridConfig(6, 0), t.TempDir(), false, nil)
	h := svc.Handler()
	w1 := register(t, h)
	lease(t, h, w1)
	r := httptest.NewRequest(http.MethodGet, PathStatus, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var st StatusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Total != 6 || st.Chunks != 3 || st.ChunksDone != 0 || len(st.Workers) != 1 {
		t.Errorf("status = %+v", st)
	}
	if !st.Workers[0].Live {
		t.Errorf("freshly registered worker not live: %+v", st.Workers[0])
	}
}

// idleCampaign builds a one-chunk campaign on a fake clock. Once its
// chunk is leased every further lease request parks, and the lease never
// expires unless the test advances the clock.
func idleCampaign(t *testing.T, clock *fakeClock, ttl time.Duration, reg *obs.Registry) (*Service, Campaign) {
	t.Helper()
	opts := ServiceOptions{LeaseSize: 2, LeaseTTL: ttl, Now: clock.Now, Metrics: reg}
	return singleCampaign(t, opts, gridConfig(2, -1), t.TempDir(), false, nil)
}

// parkLease posts a lease request from a goroutine and returns the
// channel its response arrives on. ctx is the request's context, so a
// test can play a client that goes away.
func parkLease(ctx context.Context, t *testing.T, h http.Handler, worker string) <-chan LeaseResponse {
	t.Helper()
	body, err := json.Marshal(LeaseRequest{WorkerID: worker})
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan LeaseResponse, 1)
	go func() {
		r := httptest.NewRequest(http.MethodPost, PathLease, bytes.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		var resp LeaseResponse
		if err := decodeStrict(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil {
			t.Errorf("parked lease request: HTTP %d: %s (%v)", w.Code, w.Body.String(), err)
			resp = LeaseResponse{Chunk: -1}
		}
		out <- resp
	}()
	return out
}

// waitParked blocks until the service holds n parked lease requests,
// read off its fabric.lease_parked gauge (the service needs Metrics).
func waitParked(t *testing.T, svc *Service, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for svc.leaseParked.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("lease_parked = %d, want %d", svc.leaseParked.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// parkedAnswer waits for a parked request's response, failing unless it
// arrives within limit — well inside the 5 s park bound of a 10 s TTL,
// so a response means a wakeup, not the bound.
func parkedAnswer(t *testing.T, ch <-chan LeaseResponse, limit time.Duration) LeaseResponse {
	t.Helper()
	select {
	case resp := <-ch:
		return resp
	case <-time.After(limit):
		t.Fatalf("parked lease request still waiting after %v", limit)
		return LeaseResponse{}
	}
}

// leaseOutcome names which answer a lease response carries.
func leaseOutcome(r LeaseResponse) string {
	switch {
	case r.Granted:
		return "granted"
	case r.Done:
		return "done"
	case r.Draining:
		return "draining"
	case r.Chunk < 0:
		return "malformed"
	}
	return "empty"
}

// TestLeaseLongPollGrantedOnExpiry: a request parked behind another
// worker's lease is granted that range, with a bumped generation, as
// soon as the sweeper expires it on the fake clock.
func TestLeaseLongPollGrantedOnExpiry(t *testing.T) {
	clock := newFakeClock()
	svc, _ := idleCampaign(t, clock, 10*time.Second, obs.NewRegistry())
	h := svc.Handler()
	w1, w2 := register(t, h), register(t, h)
	dead := lease(t, h, w1)

	ch := parkLease(context.Background(), t, h, w2)
	waitParked(t, svc, 1)
	clock.Advance(11 * time.Second) // past the 10s TTL: w1 presumed dead
	svc.sweep()
	got := parkedAnswer(t, ch, 2*time.Second)
	if !got.Granted || got.Chunk != dead.Chunk || got.Gen != dead.Gen+1 {
		t.Fatalf("parked request answered %+v, want chunk %d gen %d", got, dead.Chunk, dead.Gen+1)
	}
	waitParked(t, svc, 0)
}

// TestLeaseLongPollDoneOnFinish: the completion that finishes the
// campaign answers the parked request Done. Linger then holds until the
// completing worker, which is between requests, has asked for a lease
// and been answered Done too.
func TestLeaseLongPollDoneOnFinish(t *testing.T) {
	svc, _ := singleCampaign(t, ServiceOptions{LeaseSize: 2, LeaseTTL: 10 * time.Second, Metrics: obs.NewRegistry()}, gridConfig(2, 0), t.TempDir(), false, nil)
	h := svc.Handler()
	w1, w2 := register(t, h), register(t, h)
	l := lease(t, h, w1)
	ch := parkLease(context.Background(), t, h, w2)
	waitParked(t, svc, 1)
	if resp := completeLease(t, h, w1, l); !resp.OK {
		t.Fatalf("last completion answered %+v, want ok", resp)
	}
	if got := parkedAnswer(t, ch, 2*time.Second); leaseOutcome(got) != "done" {
		t.Fatalf("parked request answered %+v, want done", got)
	}
	if err := waitDone(t, svc); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	lingered := make(chan struct{})
	go func() {
		svc.Linger()
		close(lingered)
	}()
	select {
	case <-lingered:
		t.Fatal("Linger returned while w1 had not been told the run is over")
	case <-time.After(50 * time.Millisecond):
	}
	if got := parkedAnswer(t, parkLease(context.Background(), t, h, w1), 2*time.Second); leaseOutcome(got) != "done" {
		t.Fatalf("w1's next lease request answered %+v, want done", got)
	}
	select {
	case <-lingered:
	case <-time.After(2 * time.Second):
		t.Fatal("Linger still waiting after every worker was told the run is over")
	}
}

// TestLeaseLongPollEndOfRun covers the other ways a run ends under a
// parked request: a drain and a failure-budget abort answer Draining.
func TestLeaseLongPollEndOfRun(t *testing.T) {
	cases := []struct {
		name string
		end  func(t *testing.T, svc *Service, h http.Handler, w1 string, l Lease)
		want string
	}{
		{
			name: "drain",
			end:  func(t *testing.T, svc *Service, _ http.Handler, _ string, _ Lease) { svc.Drain() },
			want: "draining",
		},
		{
			name: "failure budget",
			end: func(t *testing.T, _ *Service, h http.Handler, w1 string, l Lease) {
				var cr CompleteResponse
				postProto(t, h, PathComplete, CompleteRequest{
					WorkerID: w1, Chunk: l.Chunk, Gen: l.Gen,
					Rows:     []ResultRow{{Nr: 0, Fields: []string{"0", "v"}}},
					Failures: []FailureRow{{Nr: 1, Record: json.RawMessage(`{"expNr":1}`)}},
				}, &cr)
			},
			want: "draining",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Two chunks, both leased by w1, so w2's request parks.
			svc, _ := singleCampaign(t, ServiceOptions{LeaseSize: 2, LeaseTTL: 10 * time.Second, Metrics: obs.NewRegistry()}, gridConfig(4, 0), t.TempDir(), false, nil)
			h := svc.Handler()
			w1, w2 := register(t, h), register(t, h)
			l := lease(t, h, w1)
			lease(t, h, w1)
			ch := parkLease(context.Background(), t, h, w2)
			waitParked(t, svc, 1)
			tc.end(t, svc, h, w1, l)
			if got := parkedAnswer(t, ch, 2*time.Second); leaseOutcome(got) != tc.want {
				t.Fatalf("parked request answered %+v, want %s", got, tc.want)
			}
		})
	}
}

// TestLeaseLongPollBound: with the only range leased elsewhere and
// nothing changing, a parked request answers empty once TTL/2 has
// elapsed, and records its wait in fabric.lease_wait.
func TestLeaseLongPollBound(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	const ttl = 80 * time.Millisecond
	svc, _ := idleCampaign(t, clock, ttl, reg)
	h := svc.Handler()
	lease(t, h, register(t, h))
	w2 := register(t, h)
	start := time.Now()
	got := parkedAnswer(t, parkLease(context.Background(), t, h, w2), 5*time.Second)
	if elapsed := time.Since(start); elapsed < ttl/2 {
		t.Errorf("parked request answered after %v, before its %v bound", elapsed, ttl/2)
	}
	if leaseOutcome(got) != "empty" {
		t.Fatalf("parked request answered %+v at its bound, want an empty response", got)
	}
	snap := reg.Snapshot()
	if h := snap.Histograms["fabric.lease_wait"]; h.Count != 1 || h.Sum < (ttl/2).Seconds() {
		t.Errorf("fabric.lease_wait = %+v, want one wait of at least %v", h, ttl/2)
	}
	if g := snap.Gauges["fabric.lease_parked"]; g != 0 {
		t.Errorf("fabric.lease_parked = %d after the answer, want 0", g)
	}
}

// TestLeaseLongPollClientGone: a parked request whose client goes away
// returns promptly, long before its bound, and leaves nothing parked.
func TestLeaseLongPollClientGone(t *testing.T) {
	svc, _ := idleCampaign(t, newFakeClock(), 10*time.Second, obs.NewRegistry())
	h := svc.Handler()
	lease(t, h, register(t, h))
	w2 := register(t, h)
	ctx, cancel := context.WithCancel(context.Background())
	ch := parkLease(ctx, t, h, w2)
	waitParked(t, svc, 1)
	cancel()
	if got := parkedAnswer(t, ch, 2*time.Second); leaseOutcome(got) != "empty" {
		t.Fatalf("abandoned request answered %+v, want empty", got)
	}
	waitParked(t, svc, 0)
}

// TestServiceLingerAgesOutSilentWorker: Linger stops waiting for a
// worker that was never told the run is over once that worker has been
// silent for a full TTL — a crashed worker holds serve up no longer
// than its liveness window.
func TestServiceLingerAgesOutSilentWorker(t *testing.T) {
	clock := newFakeClock()
	svc, _ := idleCampaign(t, clock, 10*time.Second, nil)
	register(t, svc.Handler())
	lingered := make(chan struct{})
	go func() {
		svc.Linger()
		close(lingered)
	}()
	select {
	case <-lingered:
		t.Fatal("Linger returned while a live worker had not been told the run is over")
	case <-time.After(50 * time.Millisecond):
	}
	clock.Advance(11 * time.Second) // past the 10s TTL: the worker is presumed dead
	select {
	case <-lingered:
	case <-time.After(2 * time.Second):
		t.Fatal("Linger still waiting for a worker silent past its TTL")
	}
}
