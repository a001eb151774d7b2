package fabric

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzLeaseProtocolDecode drives every protocol decoder with arbitrary
// bytes: none may panic, and anything they accept must be internally
// consistent (validator invariants hold) and re-encodable. The decoders
// share decodeStrict, so this also fuzzes the unknown-field, trailing-
// data and size-cap rejection paths the coordinator's HTTP surface
// depends on.
func FuzzLeaseProtocolDecode(f *testing.F) {
	// Protocol v4 message shapes, plus two v3 shapes a stale worker could
	// still send (a campaign-namespaced report, a lease request with its
	// known-campaign list) that the strict decoders must reject.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workerID":"w1"}`))
	f.Add([]byte(`{"host":"node1","pid":4321}`))
	f.Add([]byte(`{"workerID":"w1","chunk":2,"gen":9,"done":5}`))
	f.Add([]byte(`{"workerID":"w1","chunk":0,"gen":1,"rows":[{"nr":0,"fields":["0","delay"]}]}`))
	f.Add([]byte(`{"workerID":"w1","chunk":0,"gen":1,"failures":[{"nr":3,"record":{"expNr":3,"class":"panic"}}]}`))
	f.Add([]byte(`{"workerID":"w1","campaign":"c1","chunk":0,"gen":1}`))
	f.Add([]byte(`{"workerID":"w1","known":["c1"]}`))
	f.Add([]byte(`{"workerID":"w1","snapshot":{"seq":3,"counters":{"a":1}}}`))
	f.Add([]byte(`{"workerID":"w1","chunk":0,"gen":1} trailing`))
	f.Add([]byte(`[{"nr":-1}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeRegisterRequest(data); err == nil {
			if m.PID < 0 {
				t.Fatalf("accepted register with negative pid: %+v", m)
			}
		}
		if m, err := DecodeLeaseRequest(data); err == nil {
			if m.WorkerID == "" {
				t.Fatalf("accepted lease request without workerID: %+v", m)
			}
		}
		if m, err := DecodeReportRequest(data); err == nil {
			if m.WorkerID == "" || m.Chunk < 0 || m.Done < 0 {
				t.Fatalf("accepted invalid report: %+v", m)
			}
		}
		if m, err := DecodeCompleteRequest(data); err == nil {
			if m.WorkerID == "" || m.Chunk < 0 {
				t.Fatalf("accepted invalid complete: %+v", m)
			}
			for _, row := range m.Rows {
				if row.Nr < 0 || len(row.Fields) == 0 {
					t.Fatalf("accepted invalid row: %+v", row)
				}
			}
			for _, fr := range m.Failures {
				trimmed := bytes.TrimSpace(fr.Record)
				if fr.Nr < 0 || len(trimmed) == 0 || trimmed[0] != '{' || !json.Valid(trimmed) {
					t.Fatalf("accepted invalid failure row: %+v", fr)
				}
			}
			if _, err := json.Marshal(m); err != nil {
				t.Fatalf("accepted complete does not re-encode: %v", err)
			}
		}
	})
}
