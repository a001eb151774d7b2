package teleop

import "comfase/internal/platoon"

// DriveController adapts teleoperation to the platoon controller
// interface so campaign scenarios can sweep attacks over a remotely
// driven follower: the vehicle executes speed commands derived from its
// predecessor's V2V state (the operator relay) and ignores its own
// radar — the operator supplies all perception, so the communication
// link is the single point of failure exactly as in the package's
// standalone RemoteVehicle model. A command watchdog performs a
// controlled stop when the relayed state goes stale.
type DriveController struct {
	// Watchdog is the staleness bound in seconds (0 disables it, the
	// unprotected configuration).
	Watchdog float64
	// SafeDecel is the safe-stop braking magnitude (default 6).
	SafeDecel float64
	// Gain is the speed-tracking gain (default 2).
	Gain float64
	// GapGain couples the communicated gap error into the speed target
	// (default 0.5); the reference gap is the formation spacing.
	GapGain float64
	// DesiredGap is the commanded bumper-to-bumper gap in metres
	// (default 5, the formation spacing).
	DesiredGap float64

	// clock accumulates control time; beacon stamps are kernel times, so
	// the difference is the command staleness. It is the controller's
	// only state, checkpointed through ControllerState.
	clock float64
}

// DefaultDrive returns the drive controller with the given watchdog and
// the package defaults.
func DefaultDrive(watchdogS float64) *DriveController {
	return &DriveController{Watchdog: watchdogS, SafeDecel: 6, Gain: 2, GapGain: 0.5, DesiredGap: 5}
}

var _ platoon.StatefulController = (*DriveController)(nil)

// Name implements platoon.Controller.
func (c *DriveController) Name() string { return "TELEOP" }

// Reset implements platoon.Controller.
func (c *DriveController) Reset() { c.clock = 0 }

// Update implements platoon.Controller. Only the predecessor's
// communicated state is used: position, speed and time stamp all come
// over the V2V channel, so delay/DoS attacks stale or freeze them.
func (c *DriveController) Update(dt float64, self platoon.Snapshot, _, pred platoon.KinState) float64 {
	c.clock += dt
	if !pred.Valid {
		return 0
	}
	if c.Watchdog > 0 && c.clock-pred.Time.Seconds() > c.Watchdog {
		return -c.SafeDecel
	}
	// Speed command: match the relayed predecessor speed, corrected by
	// the communicated gap error so the formation holds under lag.
	gap := pred.Pos - pred.Length - self.Pos
	target := pred.Speed + float64(c.GapGain*(gap-c.DesiredGap))
	if target < 0 {
		target = 0
	}
	return c.Gain * (target - self.Speed)
}

// SaveState implements platoon.StatefulController, keeping teleoperated
// followers on the checkpoint-forking fast path.
func (c *DriveController) SaveState() platoon.ControllerState {
	return platoon.ControllerState{U: c.clock}
}

// LoadState implements platoon.StatefulController.
func (c *DriveController) LoadState(s platoon.ControllerState) { c.clock = s.U }
