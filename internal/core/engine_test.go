package core

import (
	"context"
	"testing"

	"comfase/internal/classify"
	"comfase/internal/safety"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
)

func paperEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := NewEngine(EngineConfig{
		Scenario: scenario.PaperScenario(),
		Comm:     scenario.PaperCommModel(),
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng
}

func TestNewEngineValidation(t *testing.T) {
	bad := scenario.PaperScenario()
	bad.NrVehicles = 0
	if _, err := NewEngine(EngineConfig{Scenario: bad, Comm: scenario.PaperCommModel()}); err == nil {
		t.Error("invalid scenario accepted")
	}
	badComm := scenario.PaperCommModel()
	badComm.PacketBits = 0
	if _, err := NewEngine(EngineConfig{Scenario: scenario.PaperScenario(), Comm: badComm}); err == nil {
		t.Error("invalid comm accepted")
	}
	badTh := classify.PaperThresholds(1.5)
	badTh.BenignMaxDecel = 0.1
	if _, err := NewEngine(EngineConfig{
		Scenario:   scenario.PaperScenario(),
		Comm:       scenario.PaperCommModel(),
		Thresholds: &badTh,
	}); err == nil {
		t.Error("invalid thresholds accepted")
	}
}

func TestGoldenRunProducesPaperReference(t *testing.T) {
	eng := paperEngine(t)
	log, res, err := eng.GoldenRun()
	if err != nil {
		t.Fatalf("GoldenRun: %v", err)
	}
	if len(res.Collisions) != 0 {
		t.Fatalf("golden run collided: %v", res.Collisions)
	}
	// §IV-B anchors the negligible boundary at the golden maximum
	// deceleration of 1.53 m/s^2; ours lands within 10%.
	if res.MaxDecel < 1.4 || res.MaxDecel > 1.7 {
		t.Errorf("golden MaxDecel = %v, want ~1.53", res.MaxDecel)
	}
	if log.Len() < 5900 {
		t.Errorf("golden log has %d samples, want ~6000 (60 s at 100 Hz)", log.Len())
	}
	// 4 vehicles, 10 Hz, 60 s, 3 receivers each: ~7200 deliveries.
	if res.Deliveries < 7000 {
		t.Errorf("Deliveries = %d, want ~7188", res.Deliveries)
	}
	th := eng.Thresholds()
	if th.NegligibleMaxDecel != res.MaxDecel {
		t.Errorf("thresholds not anchored at golden max: %v vs %v",
			th.NegligibleMaxDecel, res.MaxDecel)
	}
	if th.BenignMaxDecel != 5 || th.EmergencyMaxDecel != 8 {
		t.Errorf("thresholds = %+v, want 5/8 bands", th)
	}
}

func TestRunExperimentDelayCausesSevere(t *testing.T) {
	eng := paperEngine(t)
	// A 2 s delay during the deceleration phase is reliably severe (cf.
	// Fig. 6 saturation beyond 2.2 s).
	res, err := eng.RunExperiment(ExperimentSpec{
		Kind:     AttackDelay,
		Targets:  []string{"vehicle.2"},
		Value:    2.0,
		Start:    18 * des.Second,
		Duration: 10 * des.Second,
	})
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if res.Outcome != classify.Severe {
		t.Errorf("outcome = %v, want severe", res.Outcome)
	}
	if !res.Collided() {
		t.Error("severe case without collision (paper: all severe cases were collisions)")
	}
	if res.Collider == "" {
		t.Error("collider not attributed")
	}
	if len(res.MaxDecelPerVehicle) != 4 {
		t.Errorf("per-vehicle decels = %v", res.MaxDecelPerVehicle)
	}
}

func TestRunExperimentTinyDelayMild(t *testing.T) {
	eng := paperEngine(t)
	res, err := eng.RunExperiment(ExperimentSpec{
		Kind:     AttackDelay,
		Targets:  []string{"vehicle.2"},
		Value:    0.2,
		Start:    18 * des.Second,
		Duration: 1 * des.Second,
	})
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if res.Outcome == classify.Severe {
		t.Errorf("0.2 s delay for 1 s classified severe")
	}
	if res.Collided() {
		t.Errorf("0.2 s delay for 1 s collided: %v", res.Collisions)
	}
}

func TestRunExperimentDeterministic(t *testing.T) {
	spec := ExperimentSpec{
		Kind:     AttackDelay,
		Targets:  []string{"vehicle.2"},
		Value:    1.4,
		Start:    19 * des.Second,
		Duration: 7 * des.Second,
	}
	a, err := paperEngine(t).RunExperiment(spec)
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	b, err := paperEngine(t).RunExperiment(spec)
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if a.Outcome != b.Outcome || a.MaxDecel != b.MaxDecel ||
		a.MaxSpeedDev != b.MaxSpeedDev || a.Collider != b.Collider {
		t.Errorf("experiments diverged: %+v vs %+v", a, b)
	}
}

func TestRunExperimentAttackWindowRespected(t *testing.T) {
	eng := paperEngine(t)
	// An attack scheduled entirely past the horizon must be a no-op.
	res, err := eng.RunExperiment(ExperimentSpec{
		Kind:     AttackDelay,
		Targets:  []string{"vehicle.2"},
		Value:    3,
		Start:    70 * des.Second, // beyond the 60 s horizon
		Duration: 10 * des.Second,
	})
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if res.Outcome != classify.NonEffective {
		t.Errorf("attack after horizon = %v, want non-effective", res.Outcome)
	}
}

// referenceCampaign is the campaign test oracle: every grid point runs
// fresh through RunExperimentCtx, one after another in grid order.
func referenceCampaign(t *testing.T, eng *Engine, setup CampaignSetup) *CampaignResult {
	t.Helper()
	out := &CampaignResult{Setup: setup}
	for _, spec := range setup.Experiments() {
		res, err := eng.RunExperimentCtx(context.Background(), spec)
		if err != nil {
			t.Fatalf("experiment %v: %v", spec, err)
		}
		out.Experiments = append(out.Experiments, res)
		out.Counts.Add(res.Outcome)
	}
	return out
}

// TestAEBPreventsCollisions exercises the paper's future-work safety
// mechanism: with an AEB distance monitor on every follower, the DoS
// campaign's collisions disappear entirely — severity shifts from
// "collision" to "emergency braking" (§IV-B severe case ii).
func TestAEBPreventsCollisions(t *testing.T) {
	if testing.Short() {
		t.Skip("two DoS campaigns in -short mode")
	}
	run := func(withAEB bool) (collisions int, counts classify.Counts) {
		ts := scenario.PaperScenario()
		if withAEB {
			ts.AEB = safety.DefaultAEB()
		}
		eng, err := NewEngine(EngineConfig{
			Scenario: ts, Comm: scenario.PaperCommModel(), Seed: 1,
		})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		res := referenceCampaign(t, eng, PaperDoSCampaign())
		for _, e := range res.Experiments {
			if e.Collided() {
				collisions++
			}
		}
		return collisions, res.Counts
	}
	colWithout, _ := run(false)
	colWith, countsWith := run(true)
	if colWithout == 0 {
		t.Fatal("baseline DoS campaign produced no collisions")
	}
	if colWith != 0 {
		t.Errorf("AEB left %d collisions, want 0", colWith)
	}
	// Emergency braking keeps the runs severe: the attack is mitigated
	// in consequence, not in classification.
	if countsWith.Severe == 0 {
		t.Error("AEB runs have no severe (emergency braking) outcomes")
	}
}

// TestDoSCampaignShape asserts the §IV-C2 shape on the full 25-start DoS
// grid: an overwhelming majority of severe outcomes, every severe case a
// collision, the attacked vehicle and its immediate follower the
// dominant colliders, and the paper's start-time banding (Vehicle 3
// responsible in the mid band, Vehicle 2 at the edges).
func TestDoSCampaignShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full DoS campaign in -short mode")
	}
	eng := paperEngine(t)
	res := referenceCampaign(t, eng, PaperDoSCampaign())
	if res.Counts.Total() != 25 {
		t.Fatalf("total = %d", res.Counts.Total())
	}
	if res.Counts.Severe < 20 {
		t.Errorf("severe = %d/25, want >= 20 (paper: 25/25)", res.Counts.Severe)
	}
	colliders := map[string]int{}
	for _, e := range res.Experiments {
		if e.Outcome == classify.Severe && !e.Collided() {
			t.Errorf("severe without collision at start %v", e.Spec.Start)
		}
		if e.Collider != "" {
			colliders[e.Collider]++
		}
	}
	if colliders["vehicle.2"] == 0 || colliders["vehicle.3"] == 0 {
		t.Errorf("collider split %v, want both vehicle.2 and vehicle.3 present", colliders)
	}
	if colliders["vehicle.2"] < colliders["vehicle.4"] ||
		colliders["vehicle.3"] < colliders["vehicle.4"] {
		t.Errorf("collider order %v, want V2, V3 >> V4 (paper: 48/40/12)", colliders)
	}
	// Paper banding: starts in 17.6-19.4 s -> Vehicle 3 responsible.
	for _, e := range res.Experiments {
		s := e.Spec.Start
		if s >= 17600*des.Millisecond && s <= 19400*des.Millisecond &&
			e.Collider != "" && e.Collider == "vehicle.2" {
			t.Errorf("start %v collider %q, want surrounding vehicle per §IV-C2", s, e.Collider)
		}
	}
}
