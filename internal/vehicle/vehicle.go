// Package vehicle models the longitudinal dynamics of a single automated
// vehicle: physical capabilities (the vehicleFeatures of ComFASE Step-1),
// a first-order actuation lag like Plexe's engine model, and the
// semi-implicit Euler integration used by SUMO.
//
// The traffic package composes vehicles into a simulation; the platoon
// package issues acceleration commands via Vehicle.Command.
package vehicle

import (
	"errors"
	"fmt"
	"math"

	"comfase/internal/geo"
	"comfase/internal/invariant"
)

// Errors returned by specification validation.
var (
	ErrBadLength   = errors.New("vehicle: length must be positive")
	ErrBadMaxSpeed = errors.New("vehicle: max speed must be positive")
	ErrBadAccel    = errors.New("vehicle: max acceleration must be positive")
	ErrBadDecel    = errors.New("vehicle: max deceleration must be positive")
	ErrBadLag      = errors.New("vehicle: actuation lag must be non-negative")
)

// Spec holds the static capabilities of a vehicle, mirroring the
// vehicleFeatures of ComFASE Step-1.
type Spec struct {
	// ID names the vehicle ("vehicle.0" is the platoon leader, matching
	// the paper's numbering where Vehicle 1 leads and Vehicle 2 follows).
	ID string
	// Length is the vehicle length in metres (paper: 4 m).
	Length float64
	// MaxSpeed is the top speed in m/s (paper: 50 m/s).
	MaxSpeed float64
	// MaxAccel is the strongest achievable acceleration in m/s^2
	// (paper: 2.5 m/s^2).
	MaxAccel float64
	// MaxDecel is the strongest achievable braking deceleration in m/s^2,
	// expressed as a positive magnitude (paper: 9 m/s^2).
	MaxDecel float64
	// ActuationLag is the time constant (seconds) of the first-order
	// engine/brake response, as in Plexe's realistic engine model
	// (default 0.5 s). Zero means ideal, instantaneous actuation.
	ActuationLag float64
}

// Validate reports the first specification problem, or nil.
func (s Spec) Validate() error {
	switch {
	case s.Length <= 0:
		return ErrBadLength
	case s.MaxSpeed <= 0:
		return ErrBadMaxSpeed
	case s.MaxAccel <= 0:
		return ErrBadAccel
	case s.MaxDecel <= 0:
		return ErrBadDecel
	case s.ActuationLag < 0:
		return ErrBadLag
	}
	return nil
}

// PaperCar returns the vehicle capabilities of the paper's demonstration
// scenario (§IV-A1): 4 m long, 50 m/s top speed, 2.5 m/s^2 acceleration,
// 9 m/s^2 deceleration, 0.5 s actuation lag (Plexe default engine lag).
func PaperCar(id string) Spec {
	return Spec{
		ID:           id,
		Length:       4,
		MaxSpeed:     50,
		MaxAccel:     2.5,
		MaxDecel:     9,
		ActuationLag: 0.5,
	}
}

// State is the dynamic longitudinal state of a vehicle. Positions are
// measured at the FRONT bumper along the lane, like SUMO's vehicle
// position convention.
type State struct {
	// Pos is the front-bumper longitudinal position in metres.
	Pos float64
	// Speed in m/s (never negative; vehicles do not reverse).
	Speed float64
	// Accel is the realised acceleration in m/s^2 (negative = braking).
	Accel float64
	// Lane is the lane index the vehicle occupies.
	Lane int
}

// Rear returns the rear-bumper position given the vehicle length.
func (s State) Rear(length float64) float64 { return s.Pos - length }

// Vehicle couples a Spec with mutable state and the last commanded
// acceleration. It is a plain value-semantics building block; the traffic
// simulator owns and steps it.
type Vehicle struct {
	Spec  Spec
	State State

	// cmd is the most recent commanded acceleration (m/s^2) from the
	// active controller.
	cmd float64
	// stopped latches true once the vehicle has been halted by a
	// collision (SUMO "collision.action = stop" semantics).
	stopped bool

	// lagAlphaDt/lagAlphaVal memoize 1-exp(-dt/ActuationLag) for the last
	// step width seen. dt is the fixed traffic step in practice, so the
	// memo hits on every step after the first; it stores the result of
	// the identical computation, bit-for-bit, never an approximation.
	// Per-vehicle (not package-level) so concurrent workers never share
	// it. Reset wipes it via *v = Vehicle{...}, which is also exact.
	lagAlphaDt  float64
	lagAlphaVal float64
}

// lagAlpha returns 1-exp(-dt/Spec.ActuationLag), memoized on dt. The
// caller guarantees dt > 0 and ActuationLag > 0; a lag change goes
// through Reset, which clears the memo.
func (v *Vehicle) lagAlpha(dt float64) float64 {
	if dt != v.lagAlphaDt {
		v.lagAlphaDt = dt
		v.lagAlphaVal = 1 - math.Exp(-dt/v.Spec.ActuationLag)
	}
	return v.lagAlphaVal
}

// New constructs a vehicle at the given initial state.
func New(spec Spec, st State) (*Vehicle, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("vehicle %q: %w", spec.ID, err)
	}
	return &Vehicle{Spec: spec, State: st}, nil
}

// Reset reinitialises the vehicle in place as if freshly constructed by
// New(spec, st) — the reuse hook that lets the traffic simulator recycle
// vehicle objects across experiments instead of reallocating them.
func (v *Vehicle) Reset(spec Spec, st State) error {
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("vehicle %q: %w", spec.ID, err)
	}
	*v = Vehicle{Spec: spec, State: st}
	return nil
}

// Memento is a restorable snapshot of a vehicle's mutable state. The
// Spec is configuration, stable across a checkpointed experiment group,
// so only the dynamic fields are captured.
type Memento struct {
	State   State
	Cmd     float64
	Stopped bool
}

// SaveState captures the vehicle's mutable state.
func (v *Vehicle) SaveState(into *Memento) {
	into.State = v.State
	into.Cmd = v.cmd
	into.Stopped = v.stopped
}

// LoadState restores state captured by SaveState.
func (v *Vehicle) LoadState(from *Memento) {
	v.State = from.State
	v.cmd = from.Cmd
	v.stopped = from.Stopped
}

// Command sets the desired acceleration for subsequent steps. The value
// is clamped to the vehicle's physical envelope at actuation time.
func (v *Vehicle) Command(accel float64) {
	if math.IsNaN(accel) {
		accel = 0
	}
	v.cmd = accel
}

// Commanded reports the pending acceleration command.
func (v *Vehicle) Commanded() float64 { return v.cmd }

// Halt freezes the vehicle in place (post-collision stop). Further steps
// keep it stationary.
func (v *Vehicle) Halt() {
	v.stopped = true
	v.State.Speed = 0
	v.State.Accel = 0
}

// Halted reports whether the vehicle has been stopped by a collision.
func (v *Vehicle) Halted() bool { return v.stopped }

// CheckState runs the per-vehicle runtime invariants against the current
// state: position, speed and acceleration must be finite, speed
// non-negative, and position monotonic relative to prevPos (the position
// before the last Step — vehicles do not reverse). The traffic simulator
// calls it once per step when invariant checking is enabled; a non-nil
// result wraps invariant.ErrInvariant.
func (v *Vehicle) CheckState(prevPos float64) error {
	id := v.Spec.ID
	if err := invariant.CheckFinite(id, "pos", v.State.Pos); err != nil {
		return err
	}
	if err := invariant.CheckFinite(id, "speed", v.State.Speed); err != nil {
		return err
	}
	if err := invariant.CheckFinite(id, "accel", v.State.Accel); err != nil {
		return err
	}
	if err := invariant.CheckNonNegativeSpeed(id, v.State.Speed); err != nil {
		return err
	}
	return invariant.CheckMonotonicPos(id, prevPos, v.State.Pos)
}

// Step advances the dynamics by dt seconds:
//
//  1. first-order actuation lag pulls realised acceleration toward the
//     clamped command (tau = Spec.ActuationLag),
//  2. the acceleration is clamped to [-MaxDecel, +MaxAccel],
//  3. speed integrates semi-implicitly and clamps to [0, MaxSpeed],
//  4. position integrates with the new speed (SUMO Euler update).
//
// A vehicle standing still with a braking command stays at rest.
func (v *Vehicle) Step(dt float64) {
	if dt <= 0 || v.stopped {
		return
	}
	target := geo.Clamp(v.cmd, -v.Spec.MaxDecel, v.Spec.MaxAccel)
	a := v.State.Accel
	if v.Spec.ActuationLag <= 0 {
		a = target
	} else {
		// Exact discretisation of da/dt = (target - a)/tau over dt.
		a += float64((target - a) * v.lagAlpha(dt))
	}
	a = geo.Clamp(a, -v.Spec.MaxDecel, v.Spec.MaxAccel)

	speed := v.State.Speed + float64(a*dt)
	switch {
	case speed < 0:
		speed = 0
		a = 0 // standing still: no realised deceleration
	case speed > v.Spec.MaxSpeed:
		speed = v.Spec.MaxSpeed
		a = 0
	}
	v.State.Accel = a
	v.State.Speed = speed
	v.State.Pos += float64(speed * dt)
}
