package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"comfase/internal/scenario"
	"comfase/internal/sim/des"
	"comfase/internal/trace"
)

// The tests in this file are metamorphic oracles drawn from Algorithm 1:
// experiments whose attack cannot change anything must reproduce the
// golden run exactly, on the fresh path and on the forked (checkpoint)
// path alike.

// oracleEngine returns an engine on the paper scenario with n CACC
// vehicles, its golden log already recorded.
func oracleEngine(t *testing.T, n int) (*Engine, *trace.FullLog, GoldenResult) {
	t.Helper()
	ts := scenario.PaperScenario()
	ts.NrVehicles = n
	eng, err := NewEngine(EngineConfig{Scenario: ts, Comm: scenario.PaperCommModel(), Seed: 1})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	golden, res, err := eng.GoldenRun()
	if err != nil {
		t.Fatalf("GoldenRun: %v", err)
	}
	return eng, golden, res
}

// sameSuffix reports the first sample where log differs from the golden
// log's samples at the same times, bit for bit; log may start later than
// golden (a forked run records from its fork point on).
func sameSuffix(t *testing.T, what string, log, golden *trace.FullLog) {
	t.Helper()
	if log.Len() == 0 {
		t.Fatalf("%s: empty log", what)
	}
	j0 := golden.Len() - log.Len()
	if j0 < 0 || golden.Time(j0) != log.Time(0) {
		t.Fatalf("%s: %d samples from %v do not line up with the golden run's %d", what, log.Len(), log.Time(0), golden.Len())
	}
	for i := 0; i < log.Len(); i++ {
		if log.Time(i) != golden.Time(j0+i) {
			t.Fatalf("%s: sample %d at %v, golden at %v", what, i, log.Time(i), golden.Time(j0+i))
		}
		for v := 0; v < log.NumVehicles(); v++ {
			a, b := log.At(i, v), golden.At(j0+i, v)
			if math.Float64bits(a.Pos) != math.Float64bits(b.Pos) ||
				math.Float64bits(a.Speed) != math.Float64bits(b.Speed) ||
				math.Float64bits(a.Accel) != math.Float64bits(b.Accel) {
				t.Fatalf("%s: vehicle %d at %v: %+v, golden %+v", what, v, log.Time(i), a, b)
			}
		}
	}
}

// checkGoldenResult pins the classification of an experiment that must
// equal the golden run.
func checkGoldenResult(t *testing.T, what string, res ExperimentResult, golden GoldenResult) {
	t.Helper()
	if res.MaxSpeedDev != 0 || math.Float64bits(res.MaxDecel) != math.Float64bits(golden.MaxDecel) || res.Collided() {
		t.Errorf("%s: max speed deviation %v, max decel %v (golden %v), collisions %v",
			what, res.MaxSpeedDev, res.MaxDecel, golden.MaxDecel, res.Collisions)
	}
}

// forkedLog runs spec on the forked path and returns its result with the
// log recorded from the fork point on and its footprint at the end.
func forkedLog(t *testing.T, eng *Engine, spec ExperimentSpec) (ExperimentResult, *trace.FullLog, footprint) {
	t.Helper()
	ctx := context.Background()
	gs, err := eng.BeginGroup(ctx, spec.Start)
	if err != nil {
		t.Fatalf("BeginGroup: %v", err)
	}
	defer gs.Close()
	log := trace.NewFullLog(gs.sim.VehicleIDs())
	gs.sim.AddRecorder(log)
	res, err := gs.RunExperiment(ctx, spec, false)
	if err != nil {
		t.Fatalf("forked %+v: %v", spec, err)
	}
	return res, log, footprintOf(gs.sim)
}

// TestOracleZeroDelayIsGolden: a delay attack with PD = 0 on vehicle.2
// changes only the propagation delay of its links, from a few tens of
// nanoseconds to none, which no controller can observe. The attacked run
// must reproduce the golden log bit for bit. Every attacked reception
// then ends exactly when its transmission does, so this also pins the
// tie between the transmitter's txDone and the reception ends.
func TestOracleZeroDelayIsGolden(t *testing.T) {
	for _, n := range []int{4, 16} {
		eng, golden, gres := oracleEngine(t, n)
		spec := ExperimentSpec{Nr: 1, Attack: "delay", Targets: []string{"vehicle.2"},
			Value: 0, Start: 17 * des.Second, Duration: 20 * des.Second}
		res, full, err := eng.RunExperimentWithLog(spec)
		if err != nil {
			t.Fatalf("%d vehicles: %v", n, err)
		}
		sameSuffix(t, "fresh", full, golden)
		checkGoldenResult(t, "fresh", res, gres)

		res, log, _ := forkedLog(t, eng, spec)
		sameSuffix(t, "forked", log, golden)
		checkGoldenResult(t, "forked", res, gres)
	}
}

// TestOracleAttackAtHorizonIsGolden: an attack window that starts at the
// horizon never affects the simulation, whatever its value.
func TestOracleAttackAtHorizonIsGolden(t *testing.T) {
	eng, golden, gres := oracleEngine(t, 4)
	horizon := eng.Config().Scenario.TotalSimTime
	spec := ExperimentSpec{Nr: 1, Attack: "delay", Targets: []string{"vehicle.2"},
		Value: 2, Start: horizon, Duration: 10 * des.Second}
	res, full, err := eng.RunExperimentWithLog(spec)
	if err != nil {
		t.Fatalf("fresh: %v", err)
	}
	sameSuffix(t, "fresh", full, golden)
	checkGoldenResult(t, "fresh", res, gres)

	res, _, _ = forkedLog(t, eng, spec)
	checkGoldenResult(t, "forked", res, gres)
}

// sameOutcome fails unless two experiments agree bit for bit on every
// vehicle's maximum deceleration, the speed deviation, the collisions,
// the first collider and the class.
func sameOutcome(t *testing.T, what string, got, want ExperimentResult) {
	t.Helper()
	same := got.Outcome == want.Outcome && len(got.MaxDecelPerVehicle) == len(want.MaxDecelPerVehicle) &&
		math.Float64bits(got.MaxSpeedDev) == math.Float64bits(want.MaxSpeedDev) &&
		math.Float64bits(got.MaxDecel) == math.Float64bits(want.MaxDecel) &&
		got.Collider == want.Collider && reflect.DeepEqual(got.Collisions, want.Collisions)
	for v := 0; same && v < len(got.MaxDecelPerVehicle); v++ {
		same = math.Float64bits(got.MaxDecelPerVehicle[v]) == math.Float64bits(want.MaxDecelPerVehicle[v])
	}
	if !same {
		t.Errorf("%s: %v, decel %v (max %v), speed deviation %v, collisions %v by %q; want %v, %v (max %v), %v, %v by %q",
			what, got.Outcome, got.MaxDecelPerVehicle, got.MaxDecel, got.MaxSpeedDev, got.Collisions, got.Collider,
			want.Outcome, want.MaxDecelPerVehicle, want.MaxDecel, want.MaxSpeedDev, want.Collisions, want.Collider)
	}
}

// footprint is what an experiment leaves in the kernel and the medium at
// the horizon: the events still queued and the receptions pooled.
type footprint struct{ pending, pooled int }

func footprintOf(sim *scenario.Simulation) footprint {
	return footprint{pending: sim.Kernel.Pending(), pooled: sim.Air.Pooled()}
}

// freshFootprint runs spec on a fresh build through Algorithm 1's three
// SimUntil phases and returns its footprint at the horizon.
func freshFootprint(t *testing.T, eng *Engine, spec ExperimentSpec) footprint {
	t.Helper()
	cfg := eng.Config()
	horizon := cfg.Scenario.TotalSimTime
	sim, err := scenario.NewWorkspace().Build(cfg.Scenario, cfg.Comm, cfg.Seed, cfg.Controllers)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	model, err := buildModelSafe(spec, horizon, cfg.Seed)
	if err != nil {
		t.Fatalf("%s: %v", spec.Attack, err)
	}
	for _, step := range []func() error{
		sim.Start,
		func() error { return sim.RunUntil(spec.Start) },
		func() error { return applyAttack(sim, model) },
		func() error { return sim.RunUntil(spec.End(horizon)) },
		func() error { return removeAttack(sim, model) },
		func() error { return sim.RunUntil(horizon) },
	} {
		if err := step(); err != nil {
			t.Fatalf("%s fresh: %v", spec.Attack, err)
		}
	}
	return footprintOf(sim)
}

// TestOracleDoSIsDelayBeyondHorizon: a DoS attack holds every beacon on
// the target's links back until the horizon, a delay attack whose PD
// exceeds the horizon holds them back for longer, and packet loss with
// p = 1 drops them. No such beacon ever arrives inside the run, and none
// raises carrier sense, so over the same window and target the three
// must agree bit for bit, fresh and forked, on a 4- and a 16-vehicle
// platoon. The window ends at the horizon and starts where the paper's
// DoS grid does, so the experiments collide and the collider is pinned
// too. A frame that arrives after the run costs nothing either: at the
// horizon the three leave as many events queued as each other, and DoS
// and the long delay pool no more receptions than packet loss.
func TestOracleDoSIsDelayBeyondHorizon(t *testing.T) {
	for _, n := range []int{4, 16} {
		eng, _, _ := oracleEngine(t, n)
		horizon := eng.Config().Scenario.TotalSimTime
		specs := []ExperimentSpec{
			{Attack: "dos", Value: 60},
			{Attack: "delay", Value: horizon.Seconds() + 1},
			{Attack: "packet-loss", Value: 1},
		}
		results := make([][2]ExperimentResult, len(specs))
		prints := make([][2]footprint, len(specs))
		for i := range specs {
			spec := specs[i]
			spec.Nr, spec.Targets = i+1, []string{"vehicle.2"}
			spec.Start, spec.Duration = 19*des.Second, horizon
			res, err := eng.RunExperiment(spec)
			if err != nil {
				t.Fatalf("%d vehicles, %s fresh: %v", n, spec.Attack, err)
			}
			forked, _, fp := forkedLog(t, eng, spec)
			results[i] = [2]ExperimentResult{res, forked}
			prints[i] = [2]footprint{freshFootprint(t, eng, spec), fp}
		}
		loss := prints[len(specs)-1]
		for i, spec := range specs {
			for path, what := range []string{"fresh", "forked"} {
				if got, want := prints[i][path], loss[path]; got.pending != want.pending || got.pooled > want.pooled {
					t.Errorf("%d vehicles, %s %s: %d events queued and %d receptions pooled at the horizon; packet loss %d and %d",
						n, spec.Attack, what, got.pending, got.pooled, want.pending, want.pooled)
				}
			}
		}
		if !results[0][0].Collided() {
			t.Errorf("%d vehicles: the DoS run did not collide, so the collider goes unchecked", n)
		}
		for i, spec := range specs {
			for path, what := range []string{"fresh", "forked"} {
				sameOutcome(t, fmt.Sprintf("%d vehicles, %s %s vs dos fresh", n, spec.Attack, what),
					results[i][path], results[0][0])
			}
		}
	}
}

// unreadTargetExcluded lists the registered families the unread-target
// oracle skips, each with the reason its attack reaches a vehicle other
// than the target's readers.
var unreadTargetExcluded = map[string]string{
	"delay":       "intercepts both directions of the target's links (targetSet.involves), so it delays the tail's own inputs",
	"dos":         "intercepts both directions of the target's links (targetSet.involves), so it blocks the tail's own inputs",
	"packet-loss": "intercepts both directions of the target's links (targetSet.involves), so it drops the tail's own inputs",
	"jamming":     "a physical-layer jammer: its noise raises carrier sense and interference at every radio in range",
	"sybil":       "injects forged frames of its own, which other vehicles read",
}

// TestOracleUnreadTargetIsGolden: the platoon's tail vehicle (vehicle.4
// of the paper platoon) is nobody's leader or predecessor, so no
// controller reads its beacons. A family that alters only frames the
// target sends cannot change anything when the target is the tail: every
// vehicle's maximum deceleration, the speed deviation, the collisions and
// the collider must equal the golden run's, fresh and forked. Families are
// enumerated through the registry, so a new family inherits the oracle
// unless it is listed in unreadTargetExcluded with its reason.
func TestOracleUnreadTargetIsGolden(t *testing.T) {
	eng, _, gres := oracleEngine(t, 4)
	horizon := eng.Config().Scenario.TotalSimTime
	// An attack window starting at the horizon never acts: this is the
	// golden run as an experiment (TestOracleAttackAtHorizonIsGolden).
	golden, err := eng.RunExperiment(ExperimentSpec{Nr: 1, Attack: "omission", Targets: []string{"vehicle.4"},
		Start: horizon, Duration: des.Second})
	if err != nil {
		t.Fatalf("golden experiment: %v", err)
	}
	checkGoldenResult(t, "golden experiment", golden, gres)
	tested := 0
	for _, name := range AttackNames() {
		if _, skip := unreadTargetExcluded[name]; skip {
			continue
		}
		tested++
		spec := ExperimentSpec{Nr: 2, Attack: name, Targets: []string{"vehicle.4"},
			Value: 1, Start: 17 * des.Second, Duration: 20 * des.Second}
		res, err := eng.RunExperiment(spec)
		if err != nil {
			t.Fatalf("%s fresh: %v", name, err)
		}
		sameOutcome(t, name+" fresh", res, golden)
		forked, _, _ := forkedLog(t, eng, spec)
		sameOutcome(t, name+" forked", forked, golden)
	}
	if tested == 0 {
		t.Fatal("no family left to test: the oracle is vacuous")
	}
}
