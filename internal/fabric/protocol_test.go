package fabric

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestDecodeStrictRejections(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"not json", "not json"},
		{"unknown field", `{"workerID":"w1","bogus":1}`},
		{"trailing data", `{"workerID":"w1"} {"again":true}`},
		{"wrong type", `{"workerID":42}`},
		{"duplicate via array", `[1,2,3]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeLeaseRequest([]byte(tc.data)); !errors.Is(err, ErrProtocol) {
				t.Errorf("DecodeLeaseRequest(%q) err = %v, want ErrProtocol", tc.data, err)
			}
		})
	}
	if _, err := DecodeLeaseRequest([]byte(strings.Repeat(" ", maxMessageBytes+1))); !errors.Is(err, ErrProtocol) {
		t.Error("oversized message accepted")
	}
}

func TestDecodeValidators(t *testing.T) {
	if _, err := DecodeRegisterRequest([]byte(`{"host":"h","pid":-1}`)); !errors.Is(err, ErrProtocol) {
		t.Error("negative pid accepted")
	}
	if m, err := DecodeRegisterRequest([]byte(`{}`)); err != nil || m.PID != 0 {
		t.Errorf("empty register rejected: %v", err)
	}
	if _, err := DecodeLeaseRequest([]byte(`{}`)); !errors.Is(err, ErrProtocol) {
		t.Error("empty workerID accepted")
	}
	if _, err := DecodeReportRequest([]byte(`{"workerID":"w1","chunk":-2}`)); !errors.Is(err, ErrProtocol) {
		t.Error("negative chunk accepted")
	}
	if _, err := DecodeReportRequest([]byte(`{"workerID":"w1","done":-1}`)); !errors.Is(err, ErrProtocol) {
		t.Error("negative done accepted")
	}
	if m, err := DecodeReportRequest([]byte(`{"workerID":"w1","chunk":3,"gen":2}`)); err != nil || m.Gen != 2 {
		t.Errorf("valid report rejected: %v", err)
	}
	// Protocol v3's campaign namespacing is gone from the wire.
	if _, err := DecodeReportRequest([]byte(`{"workerID":"w1","campaign":"c1","chunk":3,"gen":2}`)); !errors.Is(err, ErrProtocol) {
		t.Error("v3 report with a campaign accepted")
	}
	if _, err := DecodeLeaseRequest([]byte(`{"workerID":"w1","known":["c1"]}`)); !errors.Is(err, ErrProtocol) {
		t.Error("v3 lease request with a known list accepted")
	}

	complete := func(body string) error {
		_, err := DecodeCompleteRequest([]byte(body))
		return err
	}
	if err := complete(`{"workerID":"w1","chunk":0,"gen":1,"rows":[{"nr":0,"fields":["a","b"]}]}`); err != nil {
		t.Errorf("valid complete rejected: %v", err)
	}
	for name, body := range map[string]string{
		"row without fields":   `{"workerID":"w1","chunk":0,"gen":1,"rows":[{"nr":0,"fields":[]}]}`,
		"row negative nr":      `{"workerID":"w1","chunk":0,"gen":1,"rows":[{"nr":-1,"fields":["a"]}]}`,
		"failure empty record": `{"workerID":"w1","chunk":0,"gen":1,"failures":[{"nr":0,"record":null}]}`,
		"failure negative nr":  `{"workerID":"w1","chunk":0,"gen":1,"failures":[{"nr":-3,"record":{}}]}`,
		"missing workerID":     `{"chunk":0,"gen":1}`,
		"v3 campaign field":    `{"workerID":"w1","campaign":"c1","chunk":0,"gen":1,"rows":[{"nr":0,"fields":["a"]}]}`,
	} {
		if err := complete(body); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s accepted (err=%v)", name, err)
		}
	}
}

func TestProtocolRoundTrips(t *testing.T) {
	reqs := []any{
		RegisterRequest{Host: "node1", PID: 1234},
		LeaseRequest{WorkerID: "w1"},
		ReportRequest{WorkerID: "w1", Chunk: 3, Gen: 7, Done: 2},
		CompleteRequest{
			WorkerID: "w2", Chunk: 1, Gen: 2,
			Rows:     []ResultRow{{Nr: 4, Fields: []string{"4", "x"}}},
			Failures: []FailureRow{{Nr: 5, Record: json.RawMessage(`{"expNr":5}`)}},
		},
	}
	for _, req := range reqs {
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var decErr error
		switch req.(type) {
		case RegisterRequest:
			_, decErr = DecodeRegisterRequest(data)
		case LeaseRequest:
			_, decErr = DecodeLeaseRequest(data)
		case ReportRequest:
			_, decErr = DecodeReportRequest(data)
		case CompleteRequest:
			var m CompleteRequest
			m, decErr = DecodeCompleteRequest(data)
			if decErr == nil {
				re, err := json.Marshal(m)
				if err != nil || string(re) != string(data) {
					t.Errorf("CompleteRequest round trip: %s != %s (%v)", re, data, err)
				}
			}
		}
		if decErr != nil {
			t.Errorf("round trip of %T: %v", req, decErr)
		}
	}
}
