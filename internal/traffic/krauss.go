package traffic

import (
	"math"

	"comfase/internal/sim/rng"
	"comfase/internal/vehicle"
)

// Krauss is SUMO's default stochastic car-following model (Krauß 1998) —
// the driver model that governs human-driven surrounding traffic in the
// original ComFASE stack. It is collision-free by construction: the
// driver never exceeds the "safe speed" from which it can still stop
// behind its leader under comfortable braking.
//
// ComFASE's own finding that "a faulty vehicle could significantly
// influence the behaviour of surrounding vehicles" motivates having
// conventional traffic around the platoon; Krauss vehicles provide it.
type Krauss struct {
	// Accel is the driver's acceleration ability a (m/s^2).
	Accel float64
	// Decel is the comfortable deceleration b (m/s^2).
	Decel float64
	// Tau is the driver's reaction time (s), SUMO default 1.0.
	Tau float64
	// Sigma is the driver imperfection in [0,1], SUMO default 0.5; the
	// driver randomly under-accelerates by up to Sigma*Accel.
	Sigma float64
	// MaxSpeed is the desired free-flow speed (m/s).
	MaxSpeed float64
	// RNG drives the imperfection term; nil makes the model
	// deterministic (sigma ignored).
	RNG *rng.Source
}

// DefaultKrauss returns SUMO's default passenger-car parameterisation.
func DefaultKrauss(maxSpeed float64, src *rng.Source) *Krauss {
	return &Krauss{
		Accel:    2.6,
		Decel:    4.5,
		Tau:      1.0,
		Sigma:    0.5,
		MaxSpeed: maxSpeed,
		RNG:      src,
	}
}

// SafeSpeed returns the Krauss safe speed for a follower with the given
// speed, a leader with leaderSpeed, and a bumper-to-bumper gap (m):
//
//	v_safe = -b*tau + sqrt((b*tau)^2 + v_l^2 + 2*b*gap)
//
// from which the follower can always stop behind a braking leader.
func (k *Krauss) SafeSpeed(gap, leaderSpeed float64) float64 {
	if gap <= 0 {
		return 0
	}
	bt := float64(k.Decel * k.Tau)
	v := -bt + math.Sqrt(float64(bt*bt)+float64(leaderSpeed*leaderSpeed)+float64(2*k.Decel*gap))
	if v < 0 {
		return 0
	}
	return v
}

// DesiredSpeed computes the next-step target speed for dt seconds:
// min(v + a*dt, v_safe, v_max), minus the stochastic imperfection.
func (k *Krauss) DesiredSpeed(dt, speed, gap, leaderSpeed float64, hasLeader bool) float64 {
	v := speed + float64(k.Accel*dt)
	if hasLeader {
		if vs := k.SafeSpeed(gap, leaderSpeed); vs < v {
			v = vs
		}
	}
	if v > k.MaxSpeed {
		v = k.MaxSpeed
	}
	if k.RNG != nil && k.Sigma > 0 {
		v -= float64(k.Sigma * k.Accel * dt * k.RNG.Float64())
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Accelerate converts the desired speed into an acceleration command for
// the vehicle's actuation envelope.
func (k *Krauss) Accelerate(dt, speed, gap, leaderSpeed float64, hasLeader bool) float64 {
	if dt <= 0 {
		return 0
	}
	return (k.DesiredSpeed(dt, speed, gap, leaderSpeed, hasLeader) - speed) / dt
}

// Driver binds a Krauss model to a vehicle and its (possibly nil) leader
// as a pre-step hook.
type Driver struct {
	Model  *Krauss
	Self   *vehicle.Vehicle
	Leader *vehicle.Vehicle
}

// Step issues the driver's command for a control period of dt seconds.
func (d *Driver) Step(dt float64) {
	var gap, leaderSpeed float64
	hasLeader := d.Leader != nil
	if hasLeader {
		gap = d.Leader.State.Rear(d.Leader.Spec.Length) - d.Self.State.Pos
		leaderSpeed = d.Leader.State.Speed
	}
	d.Self.Command(d.Model.Accelerate(dt, d.Self.State.Speed, gap, leaderSpeed, hasLeader))
}
