package traffic

import (
	"math"

	"comfase/internal/sim/des"
	"comfase/internal/vehicle"
)

// Maneuver is the scenarioManeuver of ComFASE Step-1: it prescribes the
// driving pattern of the platoon leader. Followers do not use maneuvers;
// they track the leader through their controllers.
type Maneuver interface {
	// TargetSpeed returns the speed (m/s) the leader should hold at
	// simulation time t (seconds).
	TargetSpeed(t float64) float64
	// FeedforwardAccel returns the acceleration (m/s^2) of the target
	// speed profile at time t, used as a feedforward term so the leader
	// tracks the profile tightly despite actuation lag.
	FeedforwardAccel(t float64) float64
}

// SpeedTracker converts a maneuver's target speed into an acceleration
// command using feedforward plus proportional feedback, the same
// structure Plexe uses to drive its leader vehicle.
type SpeedTracker struct {
	// Maneuver is the speed profile to track.
	Maneuver Maneuver
	// Gain is the proportional speed-error gain (1/s). Plexe's leader
	// speed controller is comparably stiff; 2.0 tracks a 0.2 Hz sinusoid
	// through a 0.5 s actuation lag with small phase error.
	Gain float64
	// LagComp, when positive, is the actuation time constant (seconds)
	// to invert: the command gains a tau * d(ff)/dt lead term so the
	// realised acceleration after the first-order lag matches the
	// profile's feedforward (Plexe drives its leader through the same
	// inverse-engine trick).
	LagComp float64

	// stepLen and profile are AccelAt's per-step memo (see SetStepGrid):
	// profile[k] holds the maneuver terms at kernel time k*stepLen.
	stepLen des.Time
	profile []profileStep
}

// profileStep is one memoised step of the leader profile.
type profileStep struct {
	ff, target float64 // terms at the step's time
	known      bool    // ff and target are filled
}

// maxProfileSteps caps the memo at ~3 MB; steps beyond it are evaluated
// directly.
const maxProfileSteps = 1 << 17

// Accel returns the leader's acceleration command at time t.
func (c SpeedTracker) Accel(t float64, s vehicle.State) float64 {
	ff, target := c.terms(t)
	return c.command(ff, target, s)
}

// AccelAt returns Accel(now.Seconds(), s). On the step grid set by
// SetStepGrid the maneuver terms come from a per-step memo filled on
// first use: they depend only on the maneuver and the exact kernel time,
// so every experiment replayed on one build reads the same bits the
// first one computed. Any other time is evaluated directly.
func (c *SpeedTracker) AccelAt(now des.Time, s vehicle.State) float64 {
	if c.stepLen <= 0 || now < 0 || now%c.stepLen != 0 || now/c.stepLen >= des.Time(len(c.profile)) {
		return c.Accel(now.Seconds(), s)
	}
	p := &c.profile[now/c.stepLen]
	if !p.known {
		p.ff, p.target = c.terms(now.Seconds())
		p.known = true
	}
	return c.command(p.ff, p.target, s)
}

// SetStepGrid points AccelAt's memo at the kernel times 0, step,
// 2*step, ... up to horizon and forgets every memoised step; a
// non-positive step disables the memo. Call it whenever Maneuver or
// LagComp changes.
func (c *SpeedTracker) SetStepGrid(step, horizon des.Time) {
	c.stepLen = step
	n := 0
	if step > 0 && horizon >= 0 {
		n = int(min(horizon/step+1, maxProfileSteps))
	}
	if cap(c.profile) < n {
		c.profile = make([]profileStep, n)
		return
	}
	c.profile = c.profile[:n]
	clear(c.profile)
}

// terms evaluates the maneuver at time t: the feedforward acceleration,
// including the lag-compensation lead term, and the target speed.
func (c *SpeedTracker) terms(t float64) (ff, target float64) {
	ff = c.Maneuver.FeedforwardAccel(t)
	if c.LagComp > 0 {
		const h = 1e-3 // numeric derivative step (s)
		dff := (c.Maneuver.FeedforwardAccel(t+h) - c.Maneuver.FeedforwardAccel(t-h)) / (2 * h)
		ff += float64(c.LagComp * dff)
	}
	return ff, c.Maneuver.TargetSpeed(t)
}

// command closes the loop on the vehicle's speed. Converting the
// product to float64 forces it to round, so no architecture fuses it
// into the add: a fused multiply-add rounds once and changes the bits.
// The package's other float64(x*y) conversions are there for the same
// reason.
func (c *SpeedTracker) command(ff, target float64, s vehicle.State) float64 {
	g := c.Gain
	if g <= 0 {
		g = 2.0
	}
	return ff + float64(g*(target-s.Speed))
}

// ConstantSpeed is a trivial maneuver: hold a fixed cruise speed.
type ConstantSpeed struct {
	// Speed is the cruise speed in m/s.
	Speed float64
}

var _ Maneuver = ConstantSpeed{}

// TargetSpeed implements Maneuver.
func (m ConstantSpeed) TargetSpeed(float64) float64 { return m.Speed }

// FeedforwardAccel implements Maneuver.
func (m ConstantSpeed) FeedforwardAccel(float64) float64 { return 0 }

// Sinusoidal is the paper's demonstration maneuver (§IV-A1, Fig. 4): the
// leader's speed oscillates sinusoidally so the platoon repeatedly
// accelerates and brakes, making attack effects visible. The speed
// profile is
//
//	v(t) = Base + Amplitude * sin(2*pi*Frequency*(t - Phase))
//
// and the corresponding acceleration profile peaks at
// 2*pi*Frequency*Amplitude.
type Sinusoidal struct {
	// Base is the mean speed in m/s (Plexe default scenario: 100 km/h).
	Base float64
	// Amplitude is the speed swing in m/s.
	Amplitude float64
	// Frequency is the oscillation frequency in Hz (Plexe default 0.2,
	// i.e. a 5 s platooning cycle as in Fig. 4).
	Frequency float64
	// Phase shifts the profile in seconds: the speed minimum (upward
	// zero-crossing of acceleration) occurs at t = Phase - 1/(4*Frequency)
	// plus whole periods.
	Phase float64
}

var _ Maneuver = Sinusoidal{}

// TargetSpeed implements Maneuver.
func (m Sinusoidal) TargetSpeed(t float64) float64 {
	return m.Base + float64(m.Amplitude*math.Sin(2*math.Pi*m.Frequency*(t-m.Phase)))
}

// FeedforwardAccel implements Maneuver.
func (m Sinusoidal) FeedforwardAccel(t float64) float64 {
	w := 2 * math.Pi * m.Frequency
	return m.Amplitude * w * math.Cos(w*(t-m.Phase))
}

// PeakAccel returns the maximum acceleration magnitude of the profile.
func (m Sinusoidal) PeakAccel() float64 {
	return 2 * math.Pi * m.Frequency * m.Amplitude
}

// Braking is a maneuver that cruises and then brakes to a lower speed,
// useful for emergency-braking style scenarios.
type Braking struct {
	// CruiseSpeed is the initial speed in m/s.
	CruiseSpeed float64
	// FinalSpeed is the speed after braking in m/s.
	FinalSpeed float64
	// BrakeAt is the time (s) braking begins.
	BrakeAt float64
	// Decel is the braking deceleration magnitude in m/s^2.
	Decel float64
}

var _ Maneuver = Braking{}

// TargetSpeed implements Maneuver.
func (m Braking) TargetSpeed(t float64) float64 {
	if t < m.BrakeAt || m.Decel <= 0 {
		return m.CruiseSpeed
	}
	v := m.CruiseSpeed - float64(m.Decel*(t-m.BrakeAt))
	if v < m.FinalSpeed {
		return m.FinalSpeed
	}
	return v
}

// FeedforwardAccel implements Maneuver.
func (m Braking) FeedforwardAccel(t float64) float64 {
	if t < m.BrakeAt || m.Decel <= 0 {
		return 0
	}
	if m.TargetSpeed(t) <= m.FinalSpeed {
		return 0
	}
	return -m.Decel
}
