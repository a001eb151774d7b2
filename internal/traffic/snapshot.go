package traffic

import (
	"fmt"

	"comfase/internal/sim/des"
	"comfase/internal/vehicle"
)

// SimState is a restorable snapshot of the traffic simulator's mutable
// state: every vehicle's dynamic state, the collision log, the latched
// invariant fault and the stepping ticker. The vehicle set, hooks and
// configuration are build-time wiring, stable across a checkpointed
// experiment group, so they are validated rather than captured. The
// collision log also answers which pairs are already reported: it holds
// exactly one entry per pair. The (lane, position) order detectCollisions
// reuses needs no capture either: it is a permutation of the same
// vehicle set, checked against the restored positions on the next step.
//
// The zero value is ready to use; buffers grow on first SaveState and are
// reused afterwards, so steady-state restore cycles allocate nothing.
type SimState struct {
	vehicles   []vehicle.Memento
	collisions []Collision
	fault      error
	started    bool
	ticker     des.TickerState
}

// SaveState captures the simulator's mutable state into st, reusing st's
// buffers. It must be paired with a Kernel snapshot taken at the same
// instant: the ticker's pending step is a kernel event.
func (s *Simulator) SaveState(st *SimState) {
	if cap(st.vehicles) < len(s.vehicles) {
		st.vehicles = make([]vehicle.Memento, len(s.vehicles))
	}
	st.vehicles = st.vehicles[:len(s.vehicles)]
	for i, v := range s.vehicles {
		v.SaveState(&st.vehicles[i])
	}
	st.collisions = append(st.collisions[:0], s.collisions...)
	st.fault = s.fault
	st.started = s.started
	st.ticker = s.ticker.SaveState()
}

// LoadState restores state captured by SaveState, in place on the same
// simulator with the same vehicle set.
func (s *Simulator) LoadState(st *SimState) error {
	if len(st.vehicles) != len(s.vehicles) {
		return fmt.Errorf("traffic: restore with %d vehicles, snapshot had %d",
			len(s.vehicles), len(st.vehicles))
	}
	for i, v := range s.vehicles {
		v.LoadState(&st.vehicles[i])
	}
	s.collisions = append(s.collisions[:0], st.collisions...)
	s.fault = st.fault
	s.started = st.started
	s.ticker.LoadState(st.ticker)
	return nil
}
