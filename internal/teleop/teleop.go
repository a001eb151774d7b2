// Package teleop implements the second traffic scenario the paper names
// (§III: "ComFASE allows to integrate different traffic scenarios such
// as platooning and teleoperation"; §V plans its evaluation): a remotely
// driven vehicle that executes speed commands received from an operator
// station over the V2V/V2I channel.
//
// The safety structure differs from platooning: the vehicle is blind on
// its own (the operator supplies all perception), so the communication
// channel is the single point of failure. A command watchdog — stop when
// commands stale — is the standard mitigation; the package models the
// vehicle with and without it so ComFASE campaigns can quantify the
// difference under delay/DoS attacks.
package teleop

import (
	"errors"

	"comfase/internal/geo"
	"comfase/internal/mac"
	"comfase/internal/nic"
	"comfase/internal/sim/des"
	"comfase/internal/vehicle"
)

// Command is one operator-to-vehicle drive command.
type Command struct {
	// Seq is the command sequence number.
	Seq uint64 `json:"seq"`
	// SentAt is the operator-side time stamp.
	SentAt des.Time `json:"sentAtNs"`
	// TargetSpeed is the commanded speed in m/s (0 = stop).
	TargetSpeed float64 `json:"targetSpeedMps"`
	// Brake requests an immediate controlled stop at BrakeDecel.
	Brake bool `json:"brake,omitempty"`
	// BrakeDecel is the requested braking magnitude (m/s^2).
	BrakeDecel float64 `json:"brakeDecelMps2,omitempty"`
}

// CommandBits is the on-air payload size of a command message.
const CommandBits = 256

// Policy computes the operator's command for the current scene. The
// operator is assumed to have full scene perception (camera/CCTV
// uplink); what the attacks degrade is the downlink carrying commands.
type Policy func(now des.Time) Command

// Operator is the remote driving station: a fixed roadside radio that
// sends commands at a fixed period.
type Operator struct {
	k      *des.Kernel
	radio  *nic.Radio
	policy Policy
	ticker *des.Ticker
	seq    uint64
	// Sent counts transmitted commands.
	Sent uint64
}

// OperatorConfig wires an operator station.
type OperatorConfig struct {
	// Kernel drives the command ticker (required).
	Kernel *des.Kernel
	// Air is the shared medium (required).
	Air *nic.Air
	// ID names the station radio ("operator").
	ID string
	// Position is the fixed antenna location.
	Position geo.Vec
	// Period is the command interval (default 50 ms, 20 Hz).
	Period des.Time
	// Policy computes commands (required).
	Policy Policy
}

// NewOperator registers the station on the medium.
func NewOperator(cfg OperatorConfig) (*Operator, error) {
	switch {
	case cfg.Kernel == nil:
		return nil, errors.New("teleop: Kernel is required")
	case cfg.Air == nil:
		return nil, errors.New("teleop: Air is required")
	case cfg.Policy == nil:
		return nil, errors.New("teleop: Policy is required")
	}
	id := cfg.ID
	if id == "" {
		id = "operator"
	}
	period := cfg.Period
	if period <= 0 {
		period = 50 * des.Millisecond
	}
	o := &Operator{k: cfg.Kernel, policy: cfg.Policy}
	radio, err := cfg.Air.AddRadio(id, func() geo.Vec { return cfg.Position }, nil)
	if err != nil {
		return nil, err
	}
	o.radio = radio
	o.ticker = des.NewTicker(cfg.Kernel, period, des.PriorityNormal, o.sendCommand)
	return o, nil
}

// Start arms the command stream.
func (o *Operator) Start() { o.ticker.Start(o.k.Now().Add(o.ticker.Period())) }

// Stop disarms the command stream.
func (o *Operator) Stop() { o.ticker.StopTicker() }

func (o *Operator) sendCommand() {
	o.seq++
	cmd := o.policy(o.k.Now())
	cmd.Seq = o.seq
	cmd.SentAt = o.k.Now()
	// Drive commands ride the voice category: lowest latency class.
	_ = o.radio.Send(cmd, CommandBits, mac.ACVoice, o.seq)
	o.Sent++
}

// RemoteVehicle executes operator commands. Without a watchdog it keeps
// executing the last command forever; with one it performs a safe stop
// when commands go stale.
type RemoteVehicle struct {
	k     *des.Kernel
	veh   *vehicle.Vehicle
	radio *nic.Radio

	// Watchdog is the staleness bound; zero disables the safe-stop.
	watchdog  des.Time
	safeDecel float64
	gain      float64

	lastCmd   Command
	lastRxAt  des.Time
	hasCmd    bool
	safeStops uint64
	received  uint64
}

// RemoteVehicleConfig wires a teleoperated vehicle.
type RemoteVehicleConfig struct {
	// Kernel is the shared event kernel (required).
	Kernel *des.Kernel
	// Air is the shared medium (required).
	Air *nic.Air
	// Vehicle is the driven vehicle (required).
	Vehicle *vehicle.Vehicle
	// LaneY maps the lane index to the antenna's lateral coordinate.
	LaneY func(lane int) float64
	// Watchdog is the command-staleness bound that triggers a safe stop
	// (zero = no watchdog, the unprotected configuration).
	Watchdog des.Time
	// SafeStopDecel is the safe-stop braking magnitude (default 6).
	SafeStopDecel float64
	// SpeedGain is the speed-tracking gain (default 2).
	SpeedGain float64
}

// NewRemoteVehicle registers the vehicle's radio and returns the
// teleoperation executor.
func NewRemoteVehicle(cfg RemoteVehicleConfig) (*RemoteVehicle, error) {
	switch {
	case cfg.Kernel == nil:
		return nil, errors.New("teleop: Kernel is required")
	case cfg.Air == nil:
		return nil, errors.New("teleop: Air is required")
	case cfg.Vehicle == nil:
		return nil, errors.New("teleop: Vehicle is required")
	case cfg.Watchdog < 0:
		return nil, errors.New("teleop: negative watchdog")
	}
	laneY := cfg.LaneY
	if laneY == nil {
		laneY = func(lane int) float64 { return (float64(lane) + 0.5) * 3.2 }
	}
	safeDecel := cfg.SafeStopDecel
	if safeDecel <= 0 {
		safeDecel = 6
	}
	gain := cfg.SpeedGain
	if gain <= 0 {
		gain = 2
	}
	rv := &RemoteVehicle{
		k:         cfg.Kernel,
		veh:       cfg.Vehicle,
		watchdog:  cfg.Watchdog,
		safeDecel: safeDecel,
		gain:      gain,
	}
	radio, err := cfg.Air.AddRadio(cfg.Vehicle.Spec.ID, func() geo.Vec {
		return geo.Vec{X: rv.veh.State.Pos, Y: laneY(rv.veh.State.Lane)}
	}, rv.handleRx)
	if err != nil {
		return nil, err
	}
	rv.radio = radio
	return rv, nil
}

// Vehicle returns the driven vehicle.
func (rv *RemoteVehicle) Vehicle() *vehicle.Vehicle { return rv.veh }

// Received reports accepted commands.
func (rv *RemoteVehicle) Received() uint64 { return rv.received }

// SafeStops reports control steps spent in watchdog safe-stop.
func (rv *RemoteVehicle) SafeStops() uint64 { return rv.safeStops }

// LastCommandAge returns the staleness of the newest accepted command,
// or des.MaxTime when none arrived yet.
func (rv *RemoteVehicle) LastCommandAge() des.Time {
	if !rv.hasCmd {
		return des.MaxTime
	}
	return rv.k.Now().Sub(rv.lastRxAt)
}

func (rv *RemoteVehicle) handleRx(f *mac.Frame, meta nic.RxMeta) {
	cmd, ok := f.Payload.(Command)
	if !ok {
		return
	}
	// Reject commands older than the newest accepted one (a delayed
	// frame overtaken by a fresh command must not roll the state back).
	if rv.hasCmd && cmd.SentAt < rv.lastCmd.SentAt {
		return
	}
	rv.lastCmd = cmd
	rv.lastRxAt = meta.RxAt
	rv.hasCmd = true
	rv.received++
}

// ControlStep issues the vehicle's acceleration command; register it as
// a traffic pre-step hook.
func (rv *RemoteVehicle) ControlStep(now des.Time, _ float64) {
	if !rv.hasCmd {
		rv.veh.Command(0)
		return
	}
	if rv.watchdog > 0 && now.Sub(rv.lastRxAt) > rv.watchdog {
		// Commands stale: controlled stop.
		rv.safeStops++
		rv.veh.Command(-rv.safeDecel)
		return
	}
	cmd := rv.lastCmd
	if cmd.Brake {
		d := cmd.BrakeDecel
		if d <= 0 {
			d = rv.safeDecel
		}
		rv.veh.Command(-d)
		return
	}
	rv.veh.Command(rv.gain * (cmd.TargetSpeed - rv.veh.State.Speed))
}
