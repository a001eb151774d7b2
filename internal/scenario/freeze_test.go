package scenario

import (
	"testing"

	"comfase/internal/sim/des"
	"comfase/internal/trace"
	"comfase/internal/vehicle"
)

// frozenRun returns a 4-vehicle paper simulation run to 1 s with a full
// log attached, and the golden log of the same run to 2 s. With stranger
// set, the simulation also drives a vehicle outside the platoon, in the
// next lane.
func frozenRun(t *testing.T, stranger bool) (*Simulation, *trace.FullLog, *trace.FullLog) {
	t.Helper()
	ts := PaperScenario()
	ts.TotalSimTime = 2 * des.Second
	run := func(until des.Time, stranger bool) (*Simulation, *trace.FullLog) {
		sim, err := Build(ts, PaperCommModel(), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		log := trace.NewFullLog(sim.VehicleIDs())
		sim.AddRecorder(log)
		if stranger {
			spec := ts.VehicleTemplate
			spec.ID = "stranger"
			if _, err := sim.Traffic.AddVehicle(spec, vehicle.State{Pos: 50, Speed: 20, Lane: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.Start(); err != nil {
			t.Fatal(err)
		}
		if err := sim.RunUntil(until); err != nil {
			t.Fatal(err)
		}
		return sim, log
	}
	_, golden := run(ts.TotalSimTime, false)
	sim, log := run(des.Second, stranger)
	return sim, log, golden
}

func haltFollowers(sim *Simulation) {
	for _, m := range sim.Members[1:] {
		m.Vehicle().Halt()
	}
}

// TestFrozenConditions checks each condition of the freeze predicate on
// its own.
func TestFrozenConditions(t *testing.T) {
	check := func(what string, sim *Simulation, golden *trace.FullLog, frozen, offGolden bool) {
		t.Helper()
		if f, o := sim.Frozen(golden); f != frozen || o != offGolden {
			t.Errorf("%s: Frozen = %v, offGolden = %v; want %v, %v", what, f, o, frozen, offGolden)
		}
	}

	sim, _, golden := frozenRun(t, false)
	check("platoon driving", sim, golden, false, false)
	sim.Members[3].Vehicle().Halt()
	sim.Members[2].Vehicle().Halt()
	check("a follower driving", sim, golden, false, false)
	sim.Members[1].Vehicle().Halt()
	check("followers halted, leader on the golden run", sim, golden, true, false)

	lead := sim.Members[0].Vehicle()
	pos := lead.State.Pos
	lead.State.Pos += 1e-9
	check("leader off the golden run", sim, golden, false, true)
	lead.State.Pos = pos

	v2 := sim.Members[1].Vehicle()
	back := v2.State.Pos
	v2.State.Pos = lead.State.Rear(lead.Spec.Length)
	check("a halted follower at the leader's rear bumper", sim, golden, false, false)
	v2.State.Lane = 1
	check("that follower on another lane", sim, golden, true, false)
	v2.State.Lane, v2.State.Pos = 0, back

	lead.State.Speed += 1
	lead.Halt()
	check("every vehicle halted", sim, golden, true, false)

	check("no golden sample at now", sim, trace.NewFullLog(sim.VehicleIDs()), false, false)

	sim, _, golden = frozenRun(t, true)
	haltFollowers(sim)
	check("a traffic vehicle outside the platoon", sim, golden, false, false)
}

// TestFinishFrozen: the replay records one sample per golden step after
// now, the halted followers at their frozen state and a driving leader
// from the golden log.
func TestFinishFrozen(t *testing.T) {
	sim, log, golden := frozenRun(t, false)
	haltFollowers(sim)
	if frozen, _ := sim.Frozen(golden); !frozen {
		t.Fatal("not frozen")
	}
	n := log.Len()
	sim.FinishFrozen(golden)
	if log.Len() != golden.Len() {
		t.Fatalf("log has %d samples after the replay, golden %d", log.Len(), golden.Len())
	}
	for i := n; i < log.Len(); i++ {
		if log.Time(i) != golden.Time(i) || log.At(i, 0) != golden.At(i, 0) {
			t.Fatalf("sample %d: leader %+v at %v, golden %+v at %v", i, log.At(i, 0), log.Time(i), golden.At(i, 0), golden.Time(i))
		}
		for v := 1; v < log.NumVehicles(); v++ {
			st := sim.Members[v].Vehicle().State
			if want := (trace.VehicleSample{Pos: st.Pos}); log.At(i, v) != want {
				t.Fatalf("sample %d: vehicle %d %+v, want %+v", i, v, log.At(i, v), want)
			}
		}
	}
}
