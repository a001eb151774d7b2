package config

import (
	"math"
	"strings"
	"testing"
	"time"

	"comfase/internal/sim/des"
)

func TestRangeExpand(t *testing.T) {
	tests := []struct {
		name string
		r    Range
		want []float64
	}{
		{name: "paper PD values", r: Range{From: 0.2, To: 3.0, Step: 0.2},
			want: nil /* length checked below */},
		{name: "single point", r: Range{From: 5, To: 5, Step: 1}, want: []float64{5}},
		{name: "two points", r: Range{From: 1, To: 2, Step: 1}, want: []float64{1, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tt.r.Expand()
			if err != nil {
				t.Fatalf("Expand: %v", err)
			}
			if tt.want != nil {
				if len(got) != len(tt.want) {
					t.Fatalf("got %v, want %v", got, tt.want)
				}
				for i := range tt.want {
					if got[i] != tt.want[i] {
						t.Fatalf("got %v, want %v", got, tt.want)
					}
				}
			}
		})
	}
	// The paper's PD range must land exactly 15 values despite float steps.
	got, err := (Range{From: 0.2, To: 3.0, Step: 0.2}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 15 {
		t.Errorf("PD range has %d values, want 15: %v", len(got), got)
	}
	if math.Abs(got[14]-3.0) > 1e-9 {
		t.Errorf("last PD = %v, want 3.0", got[14])
	}
}

func TestRangeExpandErrors(t *testing.T) {
	if _, err := (Range{From: 1, To: 2, Step: 0}).Expand(); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := (Range{From: 2, To: 1, Step: 1}).Expand(); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestVectorExpandMergesListAndRange(t *testing.T) {
	v := Vector{Values: []float64{60}, Range: &Range{From: 1, To: 3, Step: 1}}
	got, err := v.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(got) != 4 || got[0] != 60 || got[3] != 3 {
		t.Errorf("Expand = %v", got)
	}
}

func TestManeuverConfigBuild(t *testing.T) {
	if _, err := (ManeuverConfig{Type: "warp"}).Build(); err == nil {
		t.Error("unknown maneuver accepted")
	}
	m, err := (ManeuverConfig{}).Build()
	if err != nil {
		t.Fatalf("default maneuver: %v", err)
	}
	if m.TargetSpeed(0) <= 0 {
		t.Error("default maneuver has no speed")
	}
	c, err := (ManeuverConfig{Type: "constant", BaseSpeedMps: 30}).Build()
	if err != nil {
		t.Fatalf("constant: %v", err)
	}
	if c.TargetSpeed(10) != 30 {
		t.Errorf("constant speed = %v", c.TargetSpeed(10))
	}
	b, err := (ManeuverConfig{Type: "braking", BaseSpeedMps: 30, FinalSpeedMps: 10,
		BrakeAtS: 5, DecelMps2: 4}).Build()
	if err != nil {
		t.Fatalf("braking: %v", err)
	}
	if b.TargetSpeed(100) != 10 {
		t.Errorf("braking final speed = %v", b.TargetSpeed(100))
	}
}

func TestScenarioConfigOverrides(t *testing.T) {
	ts, err := (ScenarioConfig{
		NrVehicles:    6,
		TotalSimTimeS: 30,
		MaxDecelMps2:  6,
	}).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if ts.NrVehicles != 6 || ts.TotalSimTime != 30*des.Second || ts.VehicleTemplate.MaxDecel != 6 {
		t.Errorf("overrides not applied: %+v", ts)
	}
	// Untouched fields keep paper defaults.
	if ts.Road.Length != 9400 || ts.VehicleTemplate.Length != 4 {
		t.Error("defaults lost")
	}
	if _, err := (ScenarioConfig{Lane: 99}).Build(); err == nil {
		t.Error("invalid lane accepted")
	}
}

func TestCommConfigOverrides(t *testing.T) {
	cm, err := (CommConfig{PathLoss: "tworay", AccessMode: "alternating",
		PacketBits: 400, BeaconIntervalS: 0.05, Decider: "probabilistic"}).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if cm.Channel.PathLoss.Name() != "tworay" {
		t.Error("path loss override lost")
	}
	if cm.PacketBits != 400 || cm.BeaconInterval != 50*des.Millisecond {
		t.Error("packet/beacon overrides lost")
	}
	for _, bad := range []CommConfig{
		{PathLoss: "magic"}, {AccessMode: "sometimes"}, {Decider: "vibes"},
	} {
		if _, err := bad.Build(); err == nil {
			t.Errorf("bad comm config accepted: %+v", bad)
		}
	}
}

func TestCampaignConfigBuild(t *testing.T) {
	cc := CampaignConfig{
		Attack:      "delay",
		ValuesS:     Vector{Range: &Range{From: 0.2, To: 3.0, Step: 0.2}},
		StartTimesS: Vector{Range: &Range{From: 17, To: 21.8, Step: 0.2}},
		DurationsS:  Vector{Range: &Range{From: 1, To: 30, Step: 1}},
	}
	setup, err := cc.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if setup.NumExperiments() != 11250 {
		t.Errorf("experiments = %d, want 11250 (Table II)", setup.NumExperiments())
	}
	if setup.Targets[0] != "vehicle.2" {
		t.Errorf("default target = %v", setup.Targets)
	}
	if setup.AttackName != "delay" {
		t.Errorf("attack = %q", setup.AttackName)
	}
}

func TestCampaignConfigErrors(t *testing.T) {
	good := func() CampaignConfig {
		return CampaignConfig{
			Attack:      "dos",
			ValuesS:     Vector{Values: []float64{60}},
			StartTimesS: Vector{Values: []float64{17}},
			DurationsS:  Vector{Values: []float64{60}},
		}
	}
	if _, err := good().Build(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := good()
	bad.Attack = "quantum"
	if _, err := bad.Build(); err == nil {
		t.Error("unknown attack accepted")
	}
	bad = good()
	bad.ValuesS = Vector{}
	if _, err := bad.Build(); err == nil {
		t.Error("empty values accepted")
	}
	bad = good()
	bad.DurationsS = Vector{Range: &Range{From: 3, To: 1, Step: 1}}
	if _, err := bad.Build(); err == nil {
		t.Error("bad duration range accepted")
	}
}

func TestControllerFactory(t *testing.T) {
	for _, name := range []string{"", "cacc", "acc", "ploeg"} {
		f, err := ControllerFactory(name)
		if err != nil {
			t.Errorf("%q: %v", name, err)
			continue
		}
		if f(1) == nil {
			t.Errorf("%q produced nil controller", name)
		}
	}
	if _, err := ControllerFactory("pid"); err == nil {
		t.Error("unknown controller accepted")
	}
}

func TestParseFullDocument(t *testing.T) {
	doc := `{
	  "seed": 7,
	  "controller": "cacc",
	  "scenario": {"totalSimTimeS": 60},
	  "comm": {"packetBits": 200, "beaconIntervalS": 0.1},
	  "campaign": {
	    "attack": "delay",
	    "targets": ["vehicle.2"],
	    "valuesS": {"range": {"from": 0.2, "to": 3.0, "step": 0.2}},
	    "startTimesS": {"range": {"from": 17, "to": 21.8, "step": 0.2}},
	    "durationsS": {"range": {"from": 1, "to": 30, "step": 1}}
	  }
	}`
	p, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Seed != 7 {
		t.Errorf("seed = %d", p.Seed)
	}
	if p.Campaign.NumExperiments() != 11250 {
		t.Errorf("experiments = %d", p.Campaign.NumExperiments())
	}
	if p.Engine.Scenario.TotalSimTime != 60*des.Second {
		t.Errorf("sim time = %v", p.Engine.Scenario.TotalSimTime)
	}
}

func TestParseFabricSection(t *testing.T) {
	doc := `{
	  "campaign": {
	    "attack": "delay",
	    "valuesS": {"values": [1]},
	    "startTimesS": {"values": [17]},
	    "durationsS": {"values": [2]}
	  },
	  "fabric": {
	    "addr": "127.0.0.1:7440",
	    "leaseSize": 8,
	    "leaseTTLS": 2.5,
	    "maxCoordinatorRetries": 4,
	    "retryBaseMS": 50
	  }
	}`
	p, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	fb := p.Fabric
	if fb.Addr != "127.0.0.1:7440" || fb.LeaseSize != 8 {
		t.Errorf("fabric = %+v", fb)
	}
	if fb.LeaseTTL != 2500*time.Millisecond {
		t.Errorf("leaseTTL = %v", fb.LeaseTTL)
	}
	if fb.MaxCoordinatorRetries != 4 || fb.RetryBase != 50*time.Millisecond {
		t.Errorf("worker retry settings = %+v", fb)
	}
	// An absent section yields all-zero settings (fabric defaults apply).
	p2, err := Parse(strings.NewReader(`{"campaign": {
	  "attack": "delay",
	  "valuesS": {"values": [1]},
	  "startTimesS": {"values": [17]},
	  "durationsS": {"values": [2]}
	}}`))
	if err != nil {
		t.Fatalf("Parse without fabric: %v", err)
	}
	if p2.Fabric != (FabricSettings{}) {
		t.Errorf("absent fabric section = %+v, want zero", p2.Fabric)
	}
	for _, bad := range []struct{ doc, want string }{
		{`{"fabric": {"leaseSize": -1}}`, "leaseSize"},
		{`{"fabric": {"leaseTTLS": -2}}`, "leaseTTLS"},
		{`{"fabric": {"maxCoordinatorRetries": -3}}`, "maxCoordinatorRetries"},
		{`{"fabric": {"retryBaseMS": -4}}`, "retryBaseMS"},
		{`{"fabric": {"bogus": true}}`, `unknown field "bogus"`},
		// The multi-campaign queue's knobs are gone: naming one is an error.
		{`{"fabric": {"dir": "svc"}}`, `unknown field "dir"`},
		{`{"fabric": {"fairnessCap": 2}}`, `unknown field "fairnessCap"`},
	} {
		if _, err := Parse(strings.NewReader(bad.doc)); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: err = %v, want one naming %s", bad.doc, err, bad.want)
		}
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"sneed": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Parse(strings.NewReader(``)); err == nil {
		t.Error("empty document accepted")
	}
	if _, err := Parse(strings.NewReader(`{`)); err == nil {
		t.Error("truncated document accepted")
	}
	// Removed runtime settings fail loudly: a config that still names
	// one must not run with the setting silently dropped (four "shards"
	// would each run the whole grid).
	for _, key := range []string{`"shard": "1/2"`, `"earlyExitToleranceMps": 0.01`} {
		doc := `{"runtime": {` + key + `}}`
		name := key[:strings.IndexByte(key, ':')]
		if _, err := Parse(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "unknown field "+name) {
			t.Errorf("%s: err = %v, want an unknown-field error naming %s", doc, err, name)
		}
	}
}

func TestParseDefaultSeed(t *testing.T) {
	doc := `{"campaign": {
	  "attack": "dos",
	  "valuesS": {"values": [60]},
	  "startTimesS": {"values": [17]},
	  "durationsS": {"values": [60]}
	}}`
	p, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Seed != 1 || p.Engine.Seed != 1 {
		t.Errorf("default seed = %d/%d, want 1", p.Seed, p.Engine.Seed)
	}
}

func TestCommConfigFading(t *testing.T) {
	cm, err := (CommConfig{Fading: "nakagami"}).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if cm.Channel.Fading == nil || cm.Channel.Fading.Name() != "nakagami" {
		t.Error("fading not configured")
	}
	off, err := (CommConfig{}).Build()
	if err != nil || off.Channel.Fading != nil {
		t.Error("fading should default to off (paper setup)")
	}
	if _, err := (CommConfig{Fading: "rician"}).Build(); err == nil {
		t.Error("unknown fading accepted")
	}
}

func TestRuntimeConfigBuild(t *testing.T) {
	doc := `{
	  "campaign": {
	    "attack": "delay",
	    "valuesS": {"values": [2.0]},
	    "startTimesS": {"values": [18]},
	    "durationsS": {"values": [10]}
	  },
	  "runtime": {
	    "workers": 4,
	    "resultsFile": "out.csv",
	    "cancelCheckEvents": 1024,
	    "retries": 2,
	    "retryBackoffMS": 250,
	    "experimentTimeoutS": 30,
	    "maxFailures": -1,
	    "quarantineFile": "quarantine.jsonl",
	    "invariants": true,
	    "eventBudget": 500000
	  }
	}`
	p, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Runtime.Workers != 4 {
		t.Errorf("workers = %d, want 4", p.Runtime.Workers)
	}
	if p.Runtime.ResultsFile != "out.csv" {
		t.Errorf("resultsFile = %q", p.Runtime.ResultsFile)
	}
	if p.Engine.CancelCheckEvents != 1024 {
		t.Errorf("cancelCheckEvents = %d, want 1024", p.Engine.CancelCheckEvents)
	}
	if p.Runtime.Retries != 2 || p.Runtime.RetryBackoff != 250*time.Millisecond {
		t.Errorf("retries = %d backoff = %v, want 2/250ms", p.Runtime.Retries, p.Runtime.RetryBackoff)
	}
	if p.Runtime.ExperimentTimeout != 30*time.Second {
		t.Errorf("experimentTimeout = %v, want 30s", p.Runtime.ExperimentTimeout)
	}
	if p.Runtime.MaxFailures != -1 || p.Runtime.QuarantineFile != "quarantine.jsonl" {
		t.Errorf("maxFailures = %d quarantineFile = %q", p.Runtime.MaxFailures, p.Runtime.QuarantineFile)
	}
	if !p.Engine.Invariants || p.Engine.EventBudget != 500000 {
		t.Errorf("invariants = %v eventBudget = %d, want true/500000", p.Engine.Invariants, p.Engine.EventBudget)
	}
}

func TestRuntimeConfigDefaultsAndErrors(t *testing.T) {
	rt, err := (RuntimeConfig{}).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// workers 0 is the sequential paper setup: one worker.
	if rt.Range.Enabled() || rt.Workers != 1 || rt.ResultsFile != "" {
		t.Errorf("zero runtime config built %+v, want one worker and disabled defaults", rt)
	}
	if all, err := (RuntimeConfig{Workers: -1}).Build(); err != nil || all.Workers != -1 {
		t.Errorf("negative workers built %d (%v), want -1: all cores", all.Workers, err)
	}
	if _, err := (RuntimeConfig{Retries: -1}).Build(); err == nil {
		t.Error("negative retries accepted")
	}
	if _, err := (RuntimeConfig{RetryBackoffMS: -1}).Build(); err == nil {
		t.Error("negative retry backoff accepted")
	}
	if _, err := (RuntimeConfig{ExperimentTimeoutS: -1}).Build(); err == nil {
		t.Error("negative experiment timeout accepted")
	}
}
