// Package platoon is the Plexe substitute: longitudinal platooning
// controllers (the PATH constant-spacing CACC the paper's scenario uses,
// plus ACC and Ploeg CACC baselines for resilience comparisons) and the
// beaconing application that feeds them with communicated kinematic
// state.
//
// Per the paper (§III-C, §IV-D) the simulated vehicles carry no redundant
// distance sensors: every input to a follower's controller other than its
// own state arrives over the V2V channel. That is precisely why delaying
// or blocking beacons has safety consequences.
package platoon

import (
	"math"

	"comfase/internal/sim/des"
)

// KinState is the kinematic state of a platoon member as known to a
// follower through beacons — possibly stale under attack.
type KinState struct {
	// Pos is the front-bumper lane position (m).
	Pos float64
	// Speed in m/s.
	Speed float64
	// Accel in m/s^2.
	Accel float64
	// Length is the member's vehicle length (m).
	Length float64
	// Time is when the state was generated at the sender.
	Time des.Time
	// Valid reports whether any state has been received at all.
	Valid bool
}

// Snapshot is the follower's own (locally known, never stale) state plus
// its radar measurement of the predecessor. Like Plexe, the controllers
// take the spacing term from radar and the speed/acceleration
// feedforward terms from V2V beacons — so communication attacks corrupt
// the cooperative terms while the ego measurements stay truthful.
type Snapshot struct {
	// Pos is the front-bumper lane position (m).
	Pos float64
	// Speed in m/s.
	Speed float64
	// Accel in m/s^2.
	Accel float64
	// Length is the own vehicle length (m).
	Length float64
	// RadarGap is the measured bumper-to-bumper distance to the
	// predecessor (m).
	RadarGap float64
	// RadarRelSpeed is the measured closing speed: own speed minus
	// predecessor speed (m/s, positive = closing in).
	RadarRelSpeed float64
	// RadarValid reports whether a radar return is available.
	RadarValid bool
}

// Controller computes a follower's desired acceleration from its own
// state and the communicated leader/predecessor states. Controllers may
// be stateful (Ploeg); Update is called once per control period.
type Controller interface {
	// Name identifies the controller in configs and reports.
	Name() string
	// Update returns the desired acceleration (m/s^2) for the next
	// control period of dt seconds.
	Update(dt float64, self Snapshot, leader, pred KinState) float64
	// Reset clears internal controller state.
	Reset()
}

// CACC is the PATH/Rajamani constant-spacing cooperative adaptive cruise
// controller — the controller of the paper's demonstration scenario
// (§IV-A1, [30]). Desired acceleration:
//
//	u = a1*a_pred + a2*a_lead + a3*(v - v_pred) + a4*(v - v_lead) + a5*eps
//	eps = Spacing - gap      (positive = too close)
//
// with the alphas derived from C1, Xi, OmegaN exactly as in Plexe. The
// gap comes from radar when available (Plexe's CACC reads distance from
// radar) and falls back to the communicated predecessor position
// otherwise; speeds and accelerations always come from V2V beacons.
type CACC struct {
	// C1 weights leader vs predecessor acceleration (Plexe default 0.5).
	C1 float64
	// Xi is the damping ratio (Plexe default 1).
	Xi float64
	// OmegaN is the controller bandwidth in rad/s (Plexe default 0.2).
	OmegaN float64
	// Spacing is the constant bumper-to-bumper gap in metres (Plexe
	// default 5 m).
	Spacing float64

	// alphas memoises Alphas for the gain bits it was computed from, so
	// a control step recomputes the five gains only after a gain changes.
	alphas cacAlphas
}

// cacAlphas is a memo of CACC.Alphas: the (C1, Xi, OmegaN) bits and the
// five gains computed from them.
type cacAlphas struct {
	key [3]uint64
	a   [5]float64
	ok  bool
}

var _ Controller = (*CACC)(nil)

// DefaultCACC returns the Plexe-default parameterisation used by the
// paper's platooning scenario.
func DefaultCACC() *CACC {
	return &CACC{C1: 0.5, Xi: 1, OmegaN: 0.2, Spacing: 5}
}

// Name implements Controller.
func (c *CACC) Name() string { return "CACC" }

// Reset implements Controller (CACC is stateless).
func (c *CACC) Reset() {}

// Alphas returns the five gains derived from (C1, Xi, OmegaN).
func (c *CACC) Alphas() (a1, a2, a3, a4, a5 float64) {
	root := math.Sqrt(math.Max(float64(c.Xi*c.Xi)-1, 0))
	a1 = 1 - c.C1
	a2 = c.C1
	a3 = -(float64(2*c.Xi) - float64(c.C1*(c.Xi+root))) * c.OmegaN
	a4 = -(c.Xi + root) * c.OmegaN * c.C1
	a5 = -c.OmegaN * c.OmegaN
	return a1, a2, a3, a4, a5
}

// Update implements Controller.
func (c *CACC) Update(_ float64, self Snapshot, leader, pred KinState) float64 {
	if !pred.Valid || !leader.Valid {
		return 0 // no communicated data yet: hold current speed
	}
	key := [3]uint64{math.Float64bits(c.C1), math.Float64bits(c.Xi), math.Float64bits(c.OmegaN)}
	if !c.alphas.ok || c.alphas.key != key {
		a1, a2, a3, a4, a5 := c.Alphas()
		c.alphas = cacAlphas{key: key, a: [5]float64{a1, a2, a3, a4, a5}, ok: true}
	}
	a1, a2, a3, a4, a5 := c.alphas.a[0], c.alphas.a[1], c.alphas.a[2], c.alphas.a[3], c.alphas.a[4]
	var eps float64
	if self.RadarValid {
		eps = c.Spacing - self.RadarGap
	} else {
		eps = self.Pos - pred.Pos + pred.Length + c.Spacing
	}
	return float64(a1*pred.Accel) + float64(a2*leader.Accel) +
		float64(a3*(self.Speed-pred.Speed)) + float64(a4*(self.Speed-leader.Speed)) +
		float64(a5*eps)
}

// ACC is the PATH constant-time-headway adaptive cruise controller
// (Rajamani; Plexe's "ACC"). It is an autonomous controller: it relies
// on its own radar only —
//
//	u = -1/Headway * (dv + Lambda*(Headway*v - gap))
//
// which makes it immune to V2V attacks, the baseline contrast the
// related work (Heijden et al., Iorio et al.) draws against CACC. When
// no radar is modelled it degrades to communicated predecessor data.
type ACC struct {
	// Headway is the desired time gap in seconds (Plexe default 1.2 s).
	Headway float64
	// Lambda is the spacing-error gain (Plexe default 0.1).
	Lambda float64
}

var _ Controller = (*ACC)(nil)

// DefaultACC returns the Plexe-default ACC parameterisation.
func DefaultACC() *ACC {
	return &ACC{Headway: 1.2, Lambda: 0.1}
}

// Name implements Controller.
func (c *ACC) Name() string { return "ACC" }

// Reset implements Controller (ACC is stateless).
func (c *ACC) Reset() {}

// Update implements Controller.
func (c *ACC) Update(_ float64, self Snapshot, _, pred KinState) float64 {
	h := c.Headway
	if h <= 0 {
		h = 1.2
	}
	if self.RadarValid {
		eps := float64(h*self.Speed) - self.RadarGap
		return -(self.RadarRelSpeed + float64(c.Lambda*eps)) / h
	}
	if !pred.Valid {
		return 0
	}
	eps := self.Pos - pred.Pos + pred.Length + float64(h*self.Speed)
	return -(self.Speed - pred.Speed + float64(c.Lambda*eps)) / h
}

// Ploeg is the Ploeg et al. time-headway CACC, a dynamic controller whose
// command evolves as
//
//	h * du = -u + Kp*e + Kd*de + a_pred        (per control period)
//	e  = x_pred - x - L_pred - (R + h*v)
//	de = v_pred - v - h*a
//
// It needs predecessor acceleration over V2V, making it an interesting
// middle ground between ACC and PATH CACC for attack-resilience studies.
type Ploeg struct {
	// Headway is the time gap h in seconds (Plexe default 0.5 s).
	Headway float64
	// Kp is the spacing-error gain (Plexe default 0.2).
	Kp float64
	// Kd is the spacing-error-rate gain (Plexe default 0.7).
	Kd float64
	// Standstill is the standstill distance R in metres.
	Standstill float64

	// u is the controller's internal command state.
	u float64
}

var _ Controller = (*Ploeg)(nil)

// DefaultPloeg returns the Plexe-default Ploeg parameterisation.
func DefaultPloeg() *Ploeg {
	return &Ploeg{Headway: 0.5, Kp: 0.2, Kd: 0.7, Standstill: 2}
}

// Name implements Controller.
func (c *Ploeg) Name() string { return "PLOEG" }

// Reset implements Controller.
func (c *Ploeg) Reset() { c.u = 0 }

// Update implements Controller.
func (c *Ploeg) Update(dt float64, self Snapshot, _, pred KinState) float64 {
	if !pred.Valid || dt <= 0 {
		return c.u
	}
	h := c.Headway
	if h <= 0 {
		h = 0.5
	}
	var gap, dv float64
	if self.RadarValid {
		gap = self.RadarGap
		dv = -self.RadarRelSpeed
	} else {
		gap = pred.Pos - pred.Length - self.Pos
		dv = pred.Speed - self.Speed
	}
	e := gap - (c.Standstill + float64(h*self.Speed))
	de := dv - float64(h*self.Accel)
	du := (-c.u + float64(c.Kp*e) + float64(c.Kd*de) + pred.Accel) / h
	c.u += float64(du * dt)
	return c.u
}
