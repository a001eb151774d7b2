package scenario

import (
	"math"

	"comfase/internal/trace"
)

// Frozen reports whether no later traffic step can record anything but
// what FinishFrozen replays: every traffic vehicle is a platoon member,
// every follower is halted, and the leader is halted too or it drives on
// exactly as in the golden run. golden is the attack-free log of the same
// scenario; the predicate is false at a time it holds no sample of.
//
// Halted vehicles never move again and only a collision halts one, so
// the predicate can only turn true at a collision. The leader is the
// index-0 member, whose control step reads nothing but the time and its
// own state (the maneuver tracker). A leader that is still driving is
// frozen onto the golden run when its state equals the golden sample at
// Now bit for bit and no vehicle in its lane is at or ahead of its rear
// bumper: nothing can then reach it, so it replays the golden run's
// remaining steps exactly. When only that bit-for-bit comparison fails,
// offGolden is true and frozen false.
func (s *Simulation) Frozen(golden *trace.FullLog) (frozen, offGolden bool) {
	n := len(s.Members)
	if n == 0 || s.Traffic.NumVehicles() != n || golden.NumVehicles() != n {
		return false, false
	}
	for _, m := range s.Members[1:] {
		if !m.Vehicle().Halted() {
			return false, false
		}
	}
	k, ok := golden.Index(s.Kernel.Now())
	if !ok {
		return false, false
	}
	lead := s.Members[0].Vehicle()
	if lead.Halted() {
		return true, false
	}
	rear := lead.State.Rear(lead.Spec.Length)
	for _, m := range s.Members[1:] {
		if st := m.Vehicle().State; st.Lane == lead.State.Lane && st.Pos >= rear {
			return false, false
		}
	}
	g := golden.At(k, 0)
	if !sameBits(g.Pos, lead.State.Pos) || !sameBits(g.Speed, lead.State.Speed) || !sameBits(g.Accel, lead.State.Accel) {
		return false, true
	}
	return true, false
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FinishFrozen ends a run stopped at Now because Frozen held there: it
// feeds every recorder, through the same OnSample call postStep makes,
// the samples of every step the golden log holds after Now. Halted
// vehicles repeat their frozen state; a leader still driving takes the
// golden run's samples.
func (s *Simulation) FinishFrozen(golden *trace.FullLog) {
	k, ok := golden.Index(s.Kernel.Now())
	if !ok || len(s.recs) == 0 {
		return
	}
	s.sample()
	driving := !s.Members[0].Vehicle().Halted()
	for j := k + 1; j < golden.Len(); j++ {
		if driving {
			s.states[0] = golden.At(j, 0)
		}
		t := golden.Time(j)
		for _, r := range s.recs {
			r.OnSample(t, s.states)
		}
	}
}
