package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"comfase/internal/mac"
	"comfase/internal/nic"
	"comfase/internal/registry/param"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
	"comfase/internal/trace"
)

// lazyFamilies is one representative experiment per registered attack
// family.
var lazyFamilies = []struct {
	name   string
	value  float64
	params param.Params
}{
	{"delay", 1.5, nil},
	{"dos", 60, nil},
	{"packet-loss", 0.5, nil},
	{"replay", 1.0, nil},
	{"jamming", 10, nil},
	{"falsification", 5, param.Params{"field": "accel", "mode": "offset"}},
	{"sybil", 8, param.Params{"index": 1, "speedMps": 20}},
	{"omission", 1, nil},
	{"corruption", 2, param.Params{"sigmaPosM": 0.5}},
	{"calibration", 1, param.Params{"posOffsetM": 3}},
}

// mediumRun is what one experiment leaves in the medium and the kernel.
type mediumRun struct {
	stats    nic.Stats
	mac      []mac.Stats
	executed uint64
	settled  uint64
	log      []uint64
}

// runMedium runs one experiment of the family on an n-vehicle paper
// platoon. A non-zero event budget, too large to abort, turns reception
// elision off, so the run takes the eager path.
func runMedium(t *testing.T, n int, name string, value float64, params param.Params, budget uint64) mediumRun {
	t.Helper()
	ts := scenario.PaperScenario()
	ts.NrVehicles = n
	ts.TotalSimTime = 16 * des.Second
	sim, err := scenario.NewWorkspace().Build(ts, scenario.PaperCommModel(), 1, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sim.Kernel.SetEventBudget(budget)
	log := trace.NewFullLog(sim.VehicleIDs())
	sim.AddRecorder(log)
	spec := ExperimentSpec{Nr: 3, Attack: name, Targets: []string{"vehicle.2"}, Value: value, Params: params,
		Start: 8 * des.Second, Duration: 5 * des.Second}
	model, err := buildModelSafe(spec, ts.TotalSimTime, 1)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	steps := []func() error{
		sim.Start,
		func() error { return sim.RunUntil(spec.Start) },
		func() error { return applyAttack(sim, model) },
		func() error { return sim.RunUntil(spec.End(ts.TotalSimTime)) },
		func() error { return removeAttack(sim, model) },
		func() error { return sim.RunUntil(ts.TotalSimTime) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("%s, %d vehicles: %v", name, n, err)
		}
	}
	run := mediumRun{stats: sim.Air.Stats(), executed: sim.Kernel.Executed(), settled: sim.Kernel.Settled()}
	for _, m := range sim.Members {
		run.mac = append(run.mac, m.Radio().MAC().Stats())
	}
	for i := 0; i < log.Len(); i++ {
		for v := 0; v < log.NumVehicles(); v++ {
			s := log.At(i, v)
			run.log = append(run.log, math.Float64bits(s.Pos), math.Float64bits(s.Speed), math.Float64bits(s.Accel))
		}
	}
	return run
}

// TestLazyReceptionsMatchEager runs one experiment of every registered
// attack family on a 4- and a 16-vehicle platoon with reception elision
// on and off: the medium stats, every MAC's stats, the executed event
// count and every vehicle's trace must match bit for bit, and the lazy
// run must have settled receptions off the queue.
func TestLazyReceptionsMatchEager(t *testing.T) {
	var names []string
	for _, f := range lazyFamilies {
		names = append(names, f.name)
	}
	slices.Sort(names)
	if !slices.Equal(names, AttackNames()) {
		t.Fatalf("families %v, registry %v", names, AttackNames())
	}
	for _, n := range []int{4, 16} {
		for _, f := range lazyFamilies {
			lazy := runMedium(t, n, f.name, f.value, f.params, 0)
			eager := runMedium(t, n, f.name, f.value, f.params, math.MaxUint64)
			if lazy.settled == 0 || eager.settled != 0 {
				t.Errorf("%s, %d vehicles: %d events settled lazily, %d eagerly", f.name, n, lazy.settled, eager.settled)
			}
			lazy.settled, eager.settled = 0, 0
			if !reflect.DeepEqual(lazy, eager) {
				t.Errorf("%s, %d vehicles: lazy run differs from eager:\nlazy  %+v %+v executed %d\neager %+v %+v executed %d",
					f.name, n, lazy.stats, lazy.mac, lazy.executed, eager.stats, eager.mac, eager.executed)
			}
		}
	}
}
