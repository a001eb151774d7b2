package main

import (
	"math"
	"testing"
)

// cannedTraces is `go tool pprof -traces` output in the format Go 1.24
// prints, cut down to one trace per attribution rule.
const cannedTraces = `File: driver
Build ID: f58ffa44589b7dcd9039bb6efd03abc8839c1f9f
Type: cpu
Time: 2026-10-16 01:07:30 UTC
Duration: 7.32s, Total samples = 1.70s (23.22%)
-----------+-------------------------------------------------------
      10ms   math.archLog
             math.Log (inline)
             math.Log10 (inline)
             comfase/internal/phy.MilliwattToDBm
             comfase/internal/phy.ChannelConfig.SINRdBWithNoiseMw
             comfase/internal/nic.(*Radio).endReception
             comfase/internal/sim/des.(*Kernel).step
             main.runInProcess
             main.main
             runtime.main
-----------+-------------------------------------------------------
      30ms   runtime.duffcopy
             comfase/internal/nic.(*Air).acquireReception.func2
             comfase/internal/sim/des.(*Kernel).step
-----------+-------------------------------------------------------
     1.20s   comfase/internal/sim/des.(*Kernel).step
             comfase/internal/sim/des.(*Kernel).RunUntil
             comfase/internal/runner/pool.Run.func3
-----------+-------------------------------------------------------
     250ms   time.now
             time.Now
             main.(*timedPathLoss).LossDB
             comfase/internal/phy.ChannelConfig.RxPowerDBm
-----------+-------------------------------------------------------
     150ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
-----------+-------------------------------------------------------
      40ms   syscall.Syscall6
             internal/poll.(*FD).Read
             net/http.(*persistConn).readLoop
-----------+-------------------------------------------------------
      20ms   comfase/internal/runner.(*CSVSink).Put
             main.(*timedSink).Put
             comfase/internal/runner.(*Runner).Run.func1
-----------+-------------------------------------------------------
`

func TestRollupTracesChargesInnermostLayer(t *testing.T) {
	got, err := rollupTraces(cannedTraces)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"phy":     0.010, // math.Log under phy
		"nic":     0.030, // duffcopy under nic
		"des":     1.200,
		"harness": 0.250, // the wrapper's own clock read
		"runtime": 0.150, // a GC worker with no comfase frame
		"other":   0.040,
		"runner":  0.020,
	}
	if len(got) != len(want) {
		t.Errorf("got layers %v, want %v", got, want)
	}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-12 {
			t.Errorf("%s = %v s, want %v s", layer, got[layer], w)
		}
	}
}

func TestRollupTracesRejectsBadValues(t *testing.T) {
	if _, err := rollupTraces("-----------+---\n   10qs   main.main\n"); err == nil {
		t.Error("accepted an unknown unit")
	}
}

func TestParseSampleValue(t *testing.T) {
	for in, want := range map[string]float64{
		"10ms": 0.01, "1.20s": 1.2, "250us": 250e-6, "3µs": 3e-6, "40ns": 40e-9, "1.5mins": 90, "2hrs": 7200,
	} {
		got, err := parseSampleValue(in)
		if err != nil || math.Abs(got-want) > 1e-15 {
			t.Errorf("parseSampleValue(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"comfase/internal/wave1609.(*Schedule).Next":   "nic",
		"comfase/internal/vehicle.(*Vehicle).Step":     "traffic",
		"comfase/internal/runner/pool.Run.func3":       "runner",
		"comfase/internal/scenario.(*Workspace).Build": "core",
		"comfase/internal/classify.Classify":           "trace",
		"main.(*timedManeuver).TargetSpeed":            "harness",
		"math.Sin":                                     "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}
