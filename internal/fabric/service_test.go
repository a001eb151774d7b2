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

// singleCampaign builds a dir-less service the way `comfase serve
// -config` does: campaign c1 added at startup, its results and
// quarantine files in dir, maxFailures overriding the config's budget
// like -max-failures.
func singleCampaign(t *testing.T, opts ServiceOptions, cfg []byte, dir string, resume bool, maxFailures *int) (*Service, runner.CampaignFiles) {
	t.Helper()
	svc, err := NewService(opts)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	files := runner.CampaignFiles{
		ID:         "c1",
		Results:    filepath.Join(dir, "results.csv"),
		Quarantine: filepath.Join(dir, "quarantine.jsonl"),
	}
	if _, err := svc.Add("", cfg, files, resume, maxFailures); err != nil {
		t.Fatalf("Add: %v", err)
	}
	return svc, files
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

// mergedCount reports how many of c1's grid points are merged.
func mergedCount(svc *Service) int {
	st, _ := svc.CampaignStatusByID("c1")
	return st.Merged
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

// submitServiceConfig is a minimal real delay campaign: 3 grid points
// (1 value x 1 start x 3 durations), enough to exercise the submit
// path's config parsing without making the tests expensive.
const submitServiceConfig = `{
  "scenario": {"totalSimTimeS": 6},
  "campaign": {
    "attack": "delay",
    "valuesS": {"values": [0.3]},
    "startTimesS": {"values": [2]},
    "durationsS": {"values": [1, 2, 3]}
  }
}`

// newSchedulerService builds a submit-mode service on a fake clock with
// one campaign per grid size, each with an unlimited failure budget.
func newSchedulerService(t *testing.T, clock *fakeClock, fairnessCap int, grids ...int) (*Service, []string) {
	t.Helper()
	svc, err := NewService(ServiceOptions{
		Dir:         t.TempDir(),
		LeaseSize:   2,
		LeaseTTL:    10 * time.Second,
		FairnessCap: fairnessCap,
		Now:         clock.Now,
	})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	var ids []string
	for _, total := range grids {
		resp, err := svc.Submit("", gridConfig(total, -1))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, resp.CampaignID)
	}
	return svc, ids
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
func completeLease(t *testing.T, h http.Handler, worker, campaign string, l Lease) CompleteResponse {
	t.Helper()
	var resp CompleteResponse
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: worker, Campaign: campaign, Chunk: l.Chunk, Gen: l.Gen,
		Rows: legacyRows(l.From, l.To),
	}, &resp)
	return resp
}

// leaseFull asks for a lease and returns the whole response (campaign
// included), failing the test unless granted.
func leaseFull(t *testing.T, h http.Handler, worker string) LeaseResponse {
	t.Helper()
	var resp LeaseResponse
	if code := postProto(t, h, PathLease, LeaseRequest{WorkerID: worker}, &resp); code != http.StatusOK {
		t.Fatalf("lease: HTTP %d", code)
	}
	if !resp.Granted {
		t.Fatalf("lease not granted: %+v", resp)
	}
	return resp
}

// TestSchedulerLeaseOrder is the table-driven fairness contract: which
// campaign each successive grant comes from, under different caps and
// completion patterns.
func TestSchedulerLeaseOrder(t *testing.T) {
	cases := []struct {
		name     string
		cap      int
		grids    []int // total grid points per campaign (LeaseSize 2)
		complete bool  // complete each lease before asking for the next
		want     []string
	}{
		{
			// Cap 1 with outstanding leases: after each campaign holds
			// one chunk, the work-conserving second pass hands out more,
			// still oldest-first — the queue interleaves c1,c2,c1,c2.
			name: "cap1 interleaves", cap: 1,
			grids: []int{4, 4},
			want:  []string{"c1", "c2", "c1", "c2"},
		},
		{
			// A high cap keeps the fleet on the oldest campaign until it
			// is fully leased, then moves on.
			name: "high cap drains oldest first", cap: 8,
			grids: []int{4, 4},
			want:  []string{"c1", "c1", "c2", "c2"},
		},
		{
			// Completing each lease before asking again keeps the oldest
			// campaign under its cap, so pass 1 stays on it until it is
			// fully leased — the cap only bites on outstanding leases.
			name: "cap1 completed leases", cap: 1,
			grids: []int{4, 4}, complete: true,
			want: []string{"c1", "c1", "c2", "c2"},
		},
		{
			// Three campaigns, cap 1: strict round-robin in submission
			// order while all have pending work.
			name: "three campaigns round robin", cap: 1,
			grids: []int{4, 4, 4},
			want:  []string{"c1", "c2", "c3", "c1", "c2", "c3"},
		},
		{
			// The cap never idles a worker: with only one campaign the
			// second pass ignores it entirely.
			name: "single campaign ignores cap", cap: 1,
			grids: []int{6},
			want:  []string{"c1", "c1", "c1"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			svc, _ := newSchedulerService(t, clock, tc.cap, tc.grids...)
			h := svc.Handler()
			w1 := register(t, h)
			for i, want := range tc.want {
				lr := leaseFull(t, h, w1)
				if lr.Campaign != want {
					t.Fatalf("grant %d from %s, want %s", i, lr.Campaign, want)
				}
				if tc.complete {
					l := Lease{Chunk: lr.Chunk, From: lr.From, To: lr.To, Gen: lr.Gen}
					if resp := completeLease(t, h, w1, lr.Campaign, l); !resp.OK {
						t.Fatalf("grant %d completion rejected: %+v", i, resp)
					}
				}
			}
		})
	}
}

// TestSchedulerTTLExpiryCrossCampaign pins the re-lease path across
// campaigns: a dead worker's range from campaign c1 is re-granted — to a
// worker that has been serving c2 — once the TTL passes on the fake
// clock, with a bumped generation.
func TestSchedulerTTLExpiryCrossCampaign(t *testing.T) {
	clock := newFakeClock()
	svc, _ := newSchedulerService(t, clock, 1, 2, 4)
	h := svc.Handler()
	w1 := register(t, h)
	w2 := register(t, h)

	dead := leaseFull(t, h, w1) // c1's only chunk; w1 goes silent
	if dead.Campaign != "c1" {
		t.Fatalf("first grant from %s, want c1", dead.Campaign)
	}
	got := leaseFull(t, h, w2) // cap steers w2 to c2
	if got.Campaign != "c2" {
		t.Fatalf("second grant from %s, want c2", got.Campaign)
	}

	clock.Advance(11 * time.Second) // past the 10s TTL: w1 presumed dead

	release := leaseFull(t, h, w2)
	if release.Campaign != "c1" || release.Chunk != dead.Chunk || release.Gen != dead.Gen+1 {
		t.Fatalf("re-lease = %+v, want c1 chunk %d gen %d", release, dead.Chunk, dead.Gen+1)
	}
	// The dead worker's late completion is rejected idempotently.
	l := Lease{Chunk: dead.Chunk, From: dead.From, To: dead.To, Gen: dead.Gen}
	if resp := completeLease(t, h, w1, "c1", l); resp.OK || !resp.Stale {
		t.Fatalf("late completion answered %+v, want stale", resp)
	}
	// The re-execution's completion is the one that counts.
	l2 := Lease{Chunk: release.Chunk, From: release.From, To: release.To, Gen: release.Gen}
	if resp := completeLease(t, h, w2, "c1", l2); !resp.OK {
		t.Fatalf("re-execution completion rejected: %+v", resp)
	}
	st, ok := svc.CampaignStatusByID("c1")
	if !ok || st.State != StateDone || st.Merged != 2 {
		t.Fatalf("c1 status = %+v, want done with 2 merged", st)
	}
}

// TestSchedulerCancelMidLease pins the cancel contract: a campaign
// cancelled while a worker executes its range answers the next renew
// with cancel, rejects the late completion idempotently with stale:true
// (twice — idempotent), and grants nothing further from that campaign.
func TestSchedulerCancelMidLease(t *testing.T) {
	clock := newFakeClock()
	svc, _ := newSchedulerService(t, clock, 1, 4, 4)
	h := svc.Handler()
	w1 := register(t, h)

	lr := leaseFull(t, h, w1)
	if lr.Campaign != "c1" {
		t.Fatalf("grant from %s, want c1", lr.Campaign)
	}
	resp, found := svc.Cancel("c1")
	if !found || !resp.OK || resp.State != StateCancelled {
		t.Fatalf("Cancel = %+v found=%v", resp, found)
	}
	// Renew: told to abandon.
	var rr ReportResponse
	postProto(t, h, PathReport, ReportRequest{WorkerID: w1, Campaign: "c1", Chunk: lr.Chunk, Gen: lr.Gen}, &rr)
	if rr.OK || !rr.Cancel {
		t.Fatalf("renew after cancel answered %+v, want cancel", rr)
	}
	// Late completion: stale, idempotently.
	l := Lease{Chunk: lr.Chunk, From: lr.From, To: lr.To, Gen: lr.Gen}
	for i := 0; i < 2; i++ {
		if resp := completeLease(t, h, w1, "c1", l); resp.OK || !resp.Stale {
			t.Fatalf("completion %d after cancel answered %+v, want stale", i, resp)
		}
	}
	// Nothing written for the cancelled campaign.
	st, _ := svc.CampaignStatusByID("c1")
	if st.State != StateCancelled || st.Merged != 0 {
		t.Fatalf("c1 status = %+v, want cancelled with 0 merged", st)
	}
	// The fleet moves on to the next campaign.
	next := leaseFull(t, h, w1)
	if next.Campaign != "c2" {
		t.Fatalf("post-cancel grant from %s, want c2", next.Campaign)
	}
	// Cancelling again (or a terminal campaign) reports ok=false.
	if resp, found := svc.Cancel("c1"); !found || resp.OK || resp.State != StateCancelled {
		t.Fatalf("second cancel = %+v found=%v, want ok=false cancelled", resp, found)
	}
}

// TestServiceConfigShippedOncePerCampaign pins the Known-list contract:
// a campaign's config rides only the worker's first grant from it.
func TestServiceConfigShippedOncePerCampaign(t *testing.T) {
	clock := newFakeClock()
	svc, _ := newSchedulerService(t, clock, 8, 4)
	h := svc.Handler()
	w1 := register(t, h)

	first := leaseFull(t, h, w1)
	if len(first.Config) == 0 {
		t.Fatalf("first grant carries no config: %+v", first)
	}
	var second LeaseResponse
	postProto(t, h, PathLease, LeaseRequest{WorkerID: w1, Known: []string{first.Campaign}}, &second)
	if !second.Granted || second.Campaign != first.Campaign {
		t.Fatalf("second grant = %+v", second)
	}
	if len(second.Config) != 0 {
		t.Fatalf("config re-shipped to a worker that advertised it: %d bytes", len(second.Config))
	}
}

// TestServiceSubmitAPI drives the wire-level control plane end to end:
// submit two campaigns over HTTP, list them, read a status, complete one
// through the worker protocol, fetch its results snapshot, cancel the
// other — all against a dir-mode service whose on-disk layout must match
// runner.CampaignFilesIn.
func TestServiceSubmitAPI(t *testing.T) {
	dir := t.TempDir()
	svc, err := NewService(ServiceOptions{Dir: dir, LeaseSize: 8, LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	h := svc.Handler()

	submit := func(name string) SubmitResponse {
		t.Helper()
		var resp SubmitResponse
		code := postProto(t, h, PathCampaigns, SubmitRequest{Name: name, Config: json.RawMessage(submitServiceConfig)}, &resp)
		if code != http.StatusOK {
			t.Fatalf("submit %s: HTTP %d", name, code)
		}
		return resp
	}
	s1 := submit("first")
	s2 := submit("second")
	if s1.CampaignID != "c1" || s2.CampaignID != "c2" || s2.Position != 2 {
		t.Fatalf("submissions = %+v, %+v", s1, s2)
	}
	if s1.Total != 3 {
		t.Fatalf("c1 grid = %d points, want 3", s1.Total)
	}
	if _, err := os.Stat(filepath.Join(dir, "c1.config.json")); err != nil {
		t.Fatalf("persisted config missing: %v", err)
	}

	// List in submission order, both queued.
	r := httptest.NewRequest(http.MethodGet, PathCampaigns, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var list CampaignListResponse
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list.Campaigns) != 2 || list.Campaigns[0].ID != "c1" || list.Campaigns[0].State != StateQueued {
		t.Fatalf("list = %+v", list.Campaigns)
	}

	// Run c1 through the worker protocol.
	w1 := register(t, h)
	lr := leaseFull(t, h, w1)
	if lr.Campaign != "c1" {
		t.Fatalf("grant from %s, want the oldest campaign c1", lr.Campaign)
	}
	l := Lease{Chunk: lr.Chunk, From: lr.From, To: lr.To, Gen: lr.Gen}
	if resp := completeLease(t, h, w1, "c1", l); !resp.OK {
		t.Fatalf("completion rejected: %+v", resp)
	}

	// Results endpoint: served from the atomic snapshot.
	r = httptest.NewRequest(http.MethodGet, PathCampaignResults+"?id=c1", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var res CampaignResultsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatalf("results: %v", err)
	}
	if res.State != StateDone || res.Merged != 3 {
		t.Fatalf("results = state %s merged %d, want done/3", res.State, res.Merged)
	}
	if lines := strings.Split(strings.TrimSpace(res.CSV), "\n"); len(lines) != 4 { // header + 3 rows
		t.Fatalf("results CSV has %d lines, want 4:\n%s", len(lines), res.CSV)
	}
	// The snapshot matches what is durable on disk.
	onDisk, err := os.ReadFile(filepath.Join(dir, "c1.results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV != string(onDisk) {
		t.Errorf("results snapshot diverges from the on-disk file")
	}
	// Status document on disk, atomic and current.
	var st CampaignStatus
	stData, err := os.ReadFile(filepath.Join(dir, "c1.status.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(stData, &st); err != nil || st.State != StateDone || st.Merged != 3 {
		t.Fatalf("status doc = %+v (%v)", st, err)
	}

	// Cancel c2 over the wire.
	var cr CancelResponse
	if code := postProto(t, h, PathCampaignCancel, CancelRequest{CampaignID: "c2"}, &cr); code != http.StatusOK || !cr.OK {
		t.Fatalf("cancel: HTTP %d %+v", code, cr)
	}
	// Unknown campaigns 404.
	if code := postProto(t, h, PathCampaignCancel, CancelRequest{CampaignID: "nope"}, nil); code != http.StatusNotFound {
		t.Fatalf("cancel unknown: HTTP %d, want 404", code)
	}
}

// TestServiceSubmitRequiresDir pins the dir-less guard: a service
// without a service directory refuses submissions with 403.
func TestServiceSubmitRequiresDir(t *testing.T) {
	svc, _ := singleCampaign(t, ServiceOptions{LeaseSize: 2}, gridConfig(2, 0), t.TempDir(), false, nil)
	code := postProto(t, svc.Handler(), PathCampaigns, SubmitRequest{Config: json.RawMessage(submitServiceConfig)}, nil)
	if code != http.StatusForbidden {
		t.Fatalf("submit without -dir: HTTP %d, want 403", code)
	}
	if _, err := svc.Submit("", []byte(submitServiceConfig)); err == nil {
		t.Fatal("Submit on a dir-less service accepted")
	}
}

// TestServiceResumeDir pins dir-mode resume: a drained service's
// campaigns — one complete, one partial, one untouched — are re-adopted
// with their merged prefixes intact, and new submissions continue the ID
// numbering.
func TestServiceResumeDir(t *testing.T) {
	dir := t.TempDir()
	svc, err := NewService(ServiceOptions{Dir: dir, LeaseSize: 1, LeaseTTL: 10 * time.Second, FairnessCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	for _, name := range []string{"done", "partial", "untouched"} {
		var resp SubmitResponse
		if code := postProto(t, h, PathCampaigns, SubmitRequest{Name: name, Config: json.RawMessage(submitServiceConfig)}, &resp); code != http.StatusOK {
			t.Fatalf("submit %s: HTTP %d", name, code)
		}
	}
	w1 := register(t, h)
	// Finish all of c1 (3 one-point chunks) and 1 point of c2.
	for i := 0; i < 4; i++ {
		lr := leaseFull(t, h, w1)
		l := Lease{Chunk: lr.Chunk, From: lr.From, To: lr.To, Gen: lr.Gen}
		if resp := completeLease(t, h, w1, lr.Campaign, l); !resp.OK {
			t.Fatalf("completion %d rejected: %+v", i, resp)
		}
	}
	svc.Drain()
	svc.finish(nil) // release sinks without running Wait

	resumed, err := NewService(ServiceOptions{Dir: dir, Resume: true, LeaseSize: 1, LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	byID := map[string]CampaignStatus{}
	for _, st := range resumed.ListCampaigns() {
		byID[st.ID] = st
	}
	if st := byID["c1"]; st.State != StateDone || st.Merged != 3 {
		t.Errorf("resumed c1 = %+v, want done/3", st)
	}
	if st := byID["c2"]; st.Merged != 1 {
		t.Errorf("resumed c2 = %+v, want 1 merged", st)
	}
	if st := byID["c3"]; st.Merged != 0 {
		t.Errorf("resumed c3 = %+v, want untouched", st)
	}
	if byID["c2"].Name != "partial" {
		t.Errorf("resumed c2 name = %q, want preserved from the status doc", byID["c2"].Name)
	}
	// New submissions continue numbering past the resumed campaigns.
	resp, err := resumed.Submit("fresh", []byte(submitServiceConfig))
	if err != nil {
		t.Fatalf("post-resume submit: %v", err)
	}
	if resp.CampaignID != "c4" {
		t.Errorf("post-resume ID = %s, want c4", resp.CampaignID)
	}
	// And the resumed partial campaign leases only its remaining points.
	w2 := register(t, resumed.Handler())
	seen := map[string]int{}
	for {
		var lr LeaseResponse
		postProto(t, resumed.Handler(), PathLease, LeaseRequest{WorkerID: w2}, &lr)
		if !lr.Granted {
			break
		}
		seen[lr.Campaign]++
	}
	if seen["c1"] != 0 || seen["c2"] != 2 || seen["c3"] != 3 || seen["c4"] != 3 {
		t.Errorf("resumed lease distribution = %v, want c2:2 c3:3 c4:3", seen)
	}
	resumed.finish(nil)
}

// TestServiceResumeQuarantineOnlyPrefix pins resume of a merged prefix
// that is all quarantine: the results file is still empty (the header
// waits for the first row), yet the quarantine record must survive the
// restart, and the header must appear exactly once when rows follow.
func TestServiceResumeQuarantineOnlyPrefix(t *testing.T) {
	dir := t.TempDir()
	opts := ServiceOptions{Dir: dir, LeaseSize: 1, LeaseTTL: 10 * time.Second}
	svc, err := NewService(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit("q", gridConfig(3, -1)); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	w1 := register(t, h)
	l := lease(t, h, w1)
	rec := failureRecord(t, 0)
	var cr CompleteResponse
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen,
		Failures: []FailureRow{{Nr: 0, Record: rec}},
	}, &cr)
	if !cr.OK {
		t.Fatalf("failure-only completion rejected: %+v", cr)
	}
	svc.Drain()
	svc.finish(nil) // release sinks without running Wait
	files := runner.CampaignFilesIn(dir, "c1")
	wantQ := string(rec) + "\n"
	if got := readString(t, files.Quarantine); got != wantQ {
		t.Fatalf("quarantine before resume = %q, want %q", got, wantQ)
	}

	opts.Resume = true
	resumed, err := NewService(opts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if st, _ := resumed.CampaignStatusByID("c1"); st.Merged != 1 {
		t.Fatalf("resumed c1 = %+v, want 1 merged", st)
	}
	if got := readString(t, files.Quarantine); got != wantQ {
		t.Fatalf("resume erased the merged quarantine prefix: %q, want %q", got, wantQ)
	}
	h = resumed.Handler()
	w2 := register(t, h)
	for i := 0; i < 2; i++ {
		if resp := completeLease(t, h, w2, "c1", lease(t, h, w2)); !resp.OK {
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
	if snap, _ := resumed.Results("c1"); snap.Quarantine != wantQ || snap.Merged != 3 {
		t.Errorf("results snapshot = merged %d quarantine %q, want 3 and %q", snap.Merged, snap.Quarantine, wantQ)
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
			WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To, "v"),
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
	if got := mergedCount(svc); got != 2 {
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
	postProto(t, h, PathReport, ReportRequest{WorkerID: w1, Campaign: "c1", Chunk: dead.Chunk, Gen: dead.Gen}, &rr)
	if rr.OK || !rr.Cancel {
		t.Fatalf("stale report answered %+v, want cancel", rr)
	}
	var cr CompleteResponse
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w1, Campaign: "c1", Chunk: dead.Chunk, Gen: dead.Gen, Rows: testRows(dead.From, dead.To, "dead"),
	}, &cr)
	if cr.OK || !cr.Stale {
		t.Fatalf("stale completion answered %+v, want stale", cr)
	}
	if got := readString(t, files.Results); got != "" {
		t.Fatalf("stale rows were merged: %q", got)
	}

	// The live executions win.
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w2, Campaign: "c1", Chunk: release.Chunk, Gen: release.Gen, Rows: testRows(release.From, release.To, "live"),
	}, &cr)
	if !cr.OK {
		t.Fatalf("live completion rejected: %+v", cr)
	}
	rest := lease(t, h, w2)
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w2, Campaign: "c1", Chunk: rest.Chunk, Gen: rest.Gen, Rows: testRows(rest.From, rest.To, "live"),
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
	// The per-campaign labels apply without a service directory too, and
	// the aggregate counter keeps its value.
	if snap.Counters["fabric.rows_merged"] != 4 || snap.Counters[`fabric.campaign.rows_merged{campaign="c1"}`] != 4 {
		t.Errorf("merge counters = %v, want 4 aggregate and 4 for c1", snap.Counters)
	}
}

func TestServiceCoverageRejected(t *testing.T) {
	svc, files := singleCampaign(t, ServiceOptions{LeaseSize: 2}, gridConfig(4, 0), t.TempDir(), false, nil)
	h := svc.Handler()
	w1 := register(t, h)
	l := lease(t, h, w1)

	bad := []CompleteRequest{
		// Missing expNr 1.
		{WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.From+1, "v")},
		// ExpNr outside the range.
		{WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To+1, "v")},
		// Duplicated as both result and failure.
		{WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To, "v"),
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
		WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To, "v"),
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
	if got := mergedCount(svc); got != 3 {
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
		WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To, "v"),
	}, &cr)
	l2 := lease(t, h, w1)
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w1, Campaign: "c1", Chunk: l2.Chunk, Gen: l2.Gen, Rows: testRows(l2.From, l2.To, "v"),
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
		WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen,
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
		req := CompleteRequest{WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen}
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

// TestRunnerFilesHelpers covers the shared per-campaign file-layout
// helpers the service and CLI resume paths agree on.
func TestRunnerFilesHelpers(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"c10", "c2", "other"} {
		f := runner.CampaignFilesIn(dir, id)
		if err := os.WriteFile(f.Config, []byte(`{}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	list, err := runner.ListCampaignDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, f := range list {
		ids = append(ids, f.ID)
	}
	if got, want := strings.Join(ids, ","), "c2,c10,other"; got != want {
		t.Errorf("ListCampaignDirs order = %s, want %s (numeric-aware)", got, want)
	}
	// ReadMergedPrefix names the file it rejects: a record at expNr 5
	// with nothing in [1,5) is not a contiguous coordinator output.
	bad := runner.CampaignFilesIn(dir, "bad")
	var gapped strings.Builder
	gapped.WriteString(strings.Join(analysis.ExperimentCSVHeader(), ",") + "\n")
	for _, nr := range []int{0, 5} {
		gapped.WriteString(strings.Join(legacyRows(nr, nr+1)[0].Fields, ",") + "\n")
	}
	if err := os.WriteFile(bad.Results, []byte(gapped.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = runner.ReadMergedPrefix(bad.Results, bad.Quarantine, 0, 10)
	if err == nil || !strings.Contains(err.Error(), bad.Results) || !strings.Contains(err.Error(), "contiguous") {
		t.Errorf("gapped prefix error = %v, want it to name %s", err, bad.Results)
	}
}
