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
// platoon, on the reference workspace when reference is set.
func runMedium(t *testing.T, n int, name string, value float64, params param.Params, reference bool) mediumRun {
	t.Helper()
	ts := scenario.PaperScenario()
	ts.NrVehicles = n
	ts.TotalSimTime = 16 * des.Second
	sim, err := (&scenario.Workspace{Reference: reference}).Build(ts, scenario.PaperCommModel(), 1, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
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
// attack family on a 4- and a 16-vehicle platoon, with the medium's fast
// paths on and on the reference workspace: the medium stats, every MAC's stats, the executed event
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
			lazy := runMedium(t, n, f.name, f.value, f.params, false)
			eager := runMedium(t, n, f.name, f.value, f.params, true)
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

// jammingWindow runs the paper platoon of 16 vehicles to 18 s, jams it
// from vehicle.2 at 11.1 dBm for 10 s and reports the window's executed
// and dispatched (executed minus settled) events, its MAC busy
// deferrals and how many receptions the medium pooled for it, on the
// reference workspace when reference is set.
func jammingWindow(t *testing.T, reference bool) (executed, dispatched, deferrals uint64, pooled int) {
	t.Helper()
	ts := scenario.PaperScenario()
	ts.NrVehicles = 16
	sim, err := (&scenario.Workspace{Reference: reference}).Build(ts, scenario.PaperCommModel(), 1, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	spec := ExperimentSpec{Nr: 1, Attack: "jamming", Targets: []string{"vehicle.2"}, Value: 11.1,
		Start: 18 * des.Second, Duration: 10 * des.Second}
	model, err := buildModelSafe(spec, ts.TotalSimTime, 1)
	if err != nil {
		t.Fatal(err)
	}
	count := func() (uint64, uint64, uint64) {
		var bd uint64
		for _, m := range sim.Members {
			bd += m.Radio().MAC().Stats().BusyDeferrals
		}
		return sim.Kernel.Executed(), sim.Kernel.Settled(), bd
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(spec.Start); err != nil {
		t.Fatal(err)
	}
	e0, s0, bd0 := count()
	p0 := sim.Air.Pooled()
	if err := applyAttack(sim, model); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(spec.End(ts.TotalSimTime)); err != nil {
		t.Fatal(err)
	}
	e1, s1, bd1 := count()
	return e1 - e0, (e1 - e0) - (s1 - s0), bd1 - bd0, sim.Air.Pooled() - p0
}

// TestJammingWindowHeldCarrierSense: back-to-back jamming bursts keep a
// jammed MAC's carrier sense held, so its attempts are held and the
// bursts at radios holding frames stay off the kernel queue. Over a 10 s
// window the lazy run must execute the same events and make the same
// busy deferrals as the eager reference while dispatching at most a
// tenth of its events. The jammer settles the radios it holds, so the
// window, run in one go, pools receptions for a few bursts a radio.
func TestJammingWindowHeldCarrierSense(t *testing.T) {
	executed, dispatched, deferrals, pooled := jammingWindow(t, false)
	eagerExecuted, eagerDispatched, eagerDeferrals, _ := jammingWindow(t, true)
	if executed != eagerExecuted || deferrals != eagerDeferrals {
		t.Errorf("executed %d, busy deferrals %d; eager %d, %d", executed, deferrals, eagerExecuted, eagerDeferrals)
	}
	if deferrals == 0 || 10*dispatched > eagerDispatched {
		t.Errorf("dispatched %d events (eager %d) with %d busy deferrals; want at most a tenth, under jamming",
			dispatched, eagerDispatched, deferrals)
	}
	if pooled > 8*16 {
		t.Errorf("the window pooled %d receptions, want at most 8 a radio: held timelines must not grow", pooled)
	}
}
