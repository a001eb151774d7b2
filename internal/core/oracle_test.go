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
// log recorded from the fork point on.
func forkedLog(t *testing.T, eng *Engine, spec ExperimentSpec) (ExperimentResult, *trace.FullLog) {
	t.Helper()
	ctx := context.Background()
	gs, err := eng.BeginGroup(ctx, spec.Start)
	if err != nil {
		t.Fatalf("BeginGroup: %v", err)
	}
	defer gs.Close()
	log := trace.NewFullLog(gs.sim.VehicleIDs())
	gs.sim.AddRecorder(log)
	res, err := gs.RunExperiment(ctx, spec)
	if err != nil {
		t.Fatalf("forked %+v: %v", spec, err)
	}
	return res, log
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

		res, log := forkedLog(t, eng, spec)
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

	res, _ = forkedLog(t, eng, spec)
	checkGoldenResult(t, "forked", res, gres)
}

// sameOutcome fails unless two experiments agree bit for bit on every
// vehicle's maximum deceleration, the speed deviation, the collisions
// and the first collider.
func sameOutcome(t *testing.T, what string, got, want ExperimentResult) {
	t.Helper()
	same := len(got.MaxDecelPerVehicle) == len(want.MaxDecelPerVehicle) &&
		math.Float64bits(got.MaxSpeedDev) == math.Float64bits(want.MaxSpeedDev) &&
		math.Float64bits(got.MaxDecel) == math.Float64bits(want.MaxDecel) &&
		got.Collider == want.Collider && reflect.DeepEqual(got.Collisions, want.Collisions)
	for v := 0; same && v < len(got.MaxDecelPerVehicle); v++ {
		same = math.Float64bits(got.MaxDecelPerVehicle[v]) == math.Float64bits(want.MaxDecelPerVehicle[v])
	}
	if !same {
		t.Errorf("%s: decel %v (max %v), speed deviation %v, collisions %v by %q; want %v (max %v), %v, %v by %q",
			what, got.MaxDecelPerVehicle, got.MaxDecel, got.MaxSpeedDev, got.Collisions, got.Collider,
			want.MaxDecelPerVehicle, want.MaxDecel, want.MaxSpeedDev, want.Collisions, want.Collider)
	}
}

// TestOracleDoSIsDelayBeyondHorizon: a DoS attack holds every beacon on
// the target's links back until the horizon, a delay attack whose PD
// exceeds the horizon holds them back for longer, and packet loss with
// p = 1 drops them. No such beacon ever arrives inside the run, and none
// raises carrier sense, so over the same window and target the three
// must agree bit for bit, fresh and forked, on a 4- and a 16-vehicle
// platoon. The window ends at the horizon and starts where the paper's
// DoS grid does, so the experiments collide and the collider is pinned
// too.
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
		for i := range specs {
			spec := specs[i]
			spec.Nr, spec.Targets = i+1, []string{"vehicle.2"}
			spec.Start, spec.Duration = 19*des.Second, horizon
			res, err := eng.RunExperiment(spec)
			if err != nil {
				t.Fatalf("%d vehicles, %s fresh: %v", n, spec.Attack, err)
			}
			forked, _ := forkedLog(t, eng, spec)
			results[i] = [2]ExperimentResult{res, forked}
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
