package core

import (
	"strings"
	"testing"

	"comfase/internal/registry/param"
	"comfase/internal/sim/des"
)

// buildCtx is a minimal AttackContext for builder tests.
func buildCtx(t *testing.T, name string, value float64, p param.Params) AttackContext {
	t.Helper()
	entry, err := LookupAttack(name)
	if err != nil {
		t.Fatalf("LookupAttack(%q): %v", name, err)
	}
	applied, err := entry.Schema.Apply(p)
	if err != nil {
		t.Fatalf("Schema.Apply(%q, %v): %v", name, p, err)
	}
	return AttackContext{
		Spec: ExperimentSpec{
			Nr:       3,
			Attack:   name,
			Targets:  []string{"vehicle.2"},
			Value:    value,
			Start:    17 * des.Second,
			Duration: 5 * des.Second,
		},
		Params:  applied,
		Horizon: 60 * des.Second,
		Seed:    1,
	}
}

// TestAttackBuildersProduceModels exercises every registered family's
// builder with representative parameters.
func TestAttackBuildersProduceModels(t *testing.T) {
	cases := []struct {
		name   string
		value  float64
		params param.Params
	}{
		{"delay", 1.5, nil},
		{"dos", 60, nil},
		{"packet-loss", 0.5, nil},
		{"replay", 1.0, nil},
		{"jamming", -10, nil},
		{"falsification", 5, param.Params{"field": "accel", "mode": "offset"}},
		{"sybil", 8, param.Params{"index": 1, "speedMps": 20}},
		{"omission", 1, nil},
		{"corruption", 2, param.Params{"sigmaPosM": 0.5}},
		{"calibration", 1, param.Params{"posOffsetM": 3}},
	}
	for _, c := range cases {
		entry, err := LookupAttack(c.name)
		if err != nil {
			t.Fatalf("LookupAttack(%q): %v", c.name, err)
		}
		model, err := entry.Build(buildCtx(t, c.name, c.value, c.params))
		if err != nil {
			t.Errorf("%s builder: %v", c.name, err)
			continue
		}
		if model == nil {
			t.Errorf("%s builder returned a nil model", c.name)
			continue
		}
		if model.Name() == "" {
			t.Errorf("%s model has an empty name", c.name)
		}
	}
}

// TestAttackSchemaBoundsRejected: out-of-range or unknown attack
// parameters must fail CampaignSetup.Validate before any simulation.
func TestAttackSchemaBoundsRejected(t *testing.T) {
	base := CampaignSetup{
		Targets:   []string{"vehicle.2"},
		Values:    []float64{1},
		Starts:    []des.Time{17 * des.Second},
		Durations: []des.Time{5 * des.Second},
	}
	cases := []struct {
		attack string
		params param.Params
		want   string
	}{
		{"corruption", param.Params{"sigmaPosM": -1}, "sigmaPosM"},
		{"sybil", param.Params{"periodS": 0}, "periodS"},
		{"sybil", param.Params{"index": 1.5}, "index"},
		{"falsification", param.Params{"field": "yaw"}, "field"},
		{"falsification", param.Params{"feild": "speed"}, `did you mean "field"`},
	}
	for _, c := range cases {
		setup := base
		setup.AttackName = c.attack
		setup.Params = c.params
		err := setup.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%s, %v) = %v, want error mentioning %q",
				c.attack, c.params, err, c.want)
		}
	}
}

// TestValidateUnknownAttackSuggestion: the unknown-name error must come
// from the registry, with nearest-match help and the known-family list.
func TestValidateUnknownAttackSuggestion(t *testing.T) {
	setup := CampaignSetup{
		AttackName: "dealy",
		Targets:    []string{"vehicle.2"},
		Values:     []float64{1},
		Starts:     []des.Time{17 * des.Second},
		Durations:  []des.Time{5 * des.Second},
	}
	err := setup.Validate()
	if err == nil || !strings.Contains(err.Error(), `did you mean "delay"`) {
		t.Errorf("Validate(dealy) = %v, want delay suggestion", err)
	}
	if !strings.Contains(err.Error(), "dos") {
		t.Errorf("Validate(dealy) = %v, want the known-family list", err)
	}
}

// TestDuplicateAttackRegistrationPanics guards the process-global
// registry against silent shadowing.
func TestDuplicateAttackRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering delay did not panic")
		}
	}()
	RegisterAttack(AttackEntry{
		Name:  "delay",
		Build: func(AttackContext) (AttackModel, error) { return nil, nil },
	})
}

// TestRegistryPacketLossDeterminism: the registry builder must derive
// the loss RNG stream from the experiment number exactly as the legacy
// path did, so identical (seed, expNr) drop identical frames.
func TestRegistryPacketLossDeterminism(t *testing.T) {
	build := func() AttackModel {
		entry, err := LookupAttack("packet-loss")
		if err != nil {
			t.Fatalf("LookupAttack: %v", err)
		}
		model, err := entry.Build(buildCtx(t, "packet-loss", 0.5, nil))
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return model
	}
	a, b := build(), build()
	if a.Name() != b.Name() {
		t.Fatalf("model names differ: %q vs %q", a.Name(), b.Name())
	}
}
