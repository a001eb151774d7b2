// Package scenario implements Step-1 of the ComFASE execution flow
// (Algorithm 1): the TrafficScenario and CommModel configuration objects
// and the builder that assembles a runnable simulation from them —
// road network, traffic simulator, shared radio medium and platooning
// members, all on one discrete-event kernel.
package scenario

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"comfase/internal/mac"
	"comfase/internal/nic"
	"comfase/internal/phy"
	"comfase/internal/platoon"
	"comfase/internal/roadnet"
	"comfase/internal/safety"
	"comfase/internal/sim/des"
	"comfase/internal/trace"
	"comfase/internal/traffic"
	"comfase/internal/vehicle"
	"comfase/internal/wave1609"
)

// TrafficScenario mirrors setScenario(roadFeatures, vehicleFeatures,
// nrVehicles, scenarioManeuver, totalSimTime) of Algorithm 1.
type TrafficScenario struct {
	// Road is the roadFeatures parameter.
	Road roadnet.RoadSpec
	// VehicleTemplate is the vehicleFeatures parameter; every platoon
	// member shares it (the paper uses 4 identical vehicles). IDs are
	// assigned per member as "vehicle.<1-based index>".
	VehicleTemplate vehicle.Spec
	// NrVehicles is the platoon size (paper: 4).
	NrVehicles int
	// Maneuver is the scenarioManeuver driving the leader.
	Maneuver traffic.Maneuver
	// TotalSimTime bounds the simulation (paper: 60 s).
	TotalSimTime des.Time
	// Lane is the lane the platoon drives on.
	Lane int
	// LeaderStartPos is the leader's initial front-bumper position (m).
	LeaderStartPos float64
	// StepLength is the dynamics/control period (default 10 ms).
	StepLength des.Time
	// TrackerGain and TrackerLagComp parameterise the leader's speed
	// tracker (see traffic.SpeedTracker).
	TrackerGain    float64
	TrackerLagComp float64
	// AEB, when non-nil, equips every follower with an autonomous
	// emergency-braking monitor on its radar — the redundant safety
	// mechanism the paper's future-work section proposes. The paper's
	// demonstration scenario runs without one.
	AEB *safety.AEB
	// Invariants enables the per-step runtime sanity checks of
	// internal/invariant in the traffic simulator (finite state,
	// position monotonicity, handled overlaps). Off by default: the
	// checks cost a few comparisons per vehicle per step, and campaign
	// runs enable them through core.EngineConfig.Invariants.
	Invariants bool
}

// Validate reports the first configuration problem, or nil.
func (t TrafficScenario) Validate() error {
	if err := t.Road.Validate(); err != nil {
		return err
	}
	if err := t.VehicleTemplate.Validate(); err != nil {
		return err
	}
	switch {
	case t.NrVehicles < 1:
		return errors.New("scenario: need at least one vehicle")
	case t.Maneuver == nil:
		return errors.New("scenario: maneuver is required")
	case t.TotalSimTime <= 0:
		return errors.New("scenario: total sim time must be positive")
	case t.Lane < 0 || t.Lane >= t.Road.Lanes:
		return fmt.Errorf("scenario: lane %d outside road", t.Lane)
	case t.LeaderStartPos < 0 || t.LeaderStartPos > t.Road.Length:
		return errors.New("scenario: leader start position outside road")
	}
	return nil
}

// CommModel mirrors setCommunication(commProtocol, wirelessModel,
// packetSize, beaconingTime) of Algorithm 1. The commProtocol (IEEE
// 802.11p + IEEE 1609.4) is embodied by the Channel + Schedule pair.
type CommModel struct {
	// Channel is the analog/PHY configuration (wirelessModel and
	// friends).
	Channel phy.ChannelConfig
	// Schedule is the IEEE 1609.4 channel-access schedule.
	Schedule wave1609.Schedule
	// PacketBits is the packetSize (paper: 200 bits).
	PacketBits int
	// BeaconInterval is the beaconingTime (paper: 0.1 s).
	BeaconInterval des.Time
	// AC is the EDCA access category of beacons.
	AC mac.AccessCategory
}

// Validate reports the first configuration problem, or nil.
func (c CommModel) Validate() error {
	if err := c.Channel.Validate(); err != nil {
		return err
	}
	if err := c.Schedule.Validate(); err != nil {
		return err
	}
	switch {
	case c.PacketBits <= 0:
		return errors.New("scenario: packet bits must be positive")
	case c.BeaconInterval <= 0:
		return errors.New("scenario: beacon interval must be positive")
	case !c.AC.Valid():
		return errors.New("scenario: invalid access category")
	}
	return nil
}

// PaperManeuver returns the sinusoidal maneuver of the demonstration
// scenario: 0.2 Hz (one 5 s platooning cycle, Fig. 4), peak acceleration
// ~1.53 m/s^2 (the golden-run maximum of §IV-B), phased so the
// low-acceleration benign window of Fig. 7 falls at ~19.4-20.2 s.
func PaperManeuver() traffic.Sinusoidal {
	return traffic.Sinusoidal{
		Base:      27.78,  // 100 km/h, Plexe default platoon speed
		Amplitude: 1.2175, // 1.53 m/s^2 peak at 0.2 Hz
		Frequency: 0.2,    // 5 s cycle: start times 17.0..21.8 cover one cycle
		Phase:     1.05,   // speed minimum at t = 19.8 s (mod 5 s)
	}
}

// PaperScenario returns the TrafficScenario of §IV-A1: a 4-lane, 9400 m
// highway with 90 m/s limit; four identical vehicles (4 m long, 2.5/9
// m/s^2 accel/decel, 50 m/s top speed) driving a sinusoidal maneuver for
// 60 s.
func PaperScenario() TrafficScenario {
	return TrafficScenario{
		Road:            roadnet.PaperHighway(),
		VehicleTemplate: vehicle.PaperCar("template"),
		NrVehicles:      4,
		Maneuver:        PaperManeuver(),
		TotalSimTime:    60 * des.Second,
		Lane:            0,
		LeaderStartPos:  100,
		StepLength:      10 * des.Millisecond,
		TrackerGain:     2,
		TrackerLagComp:  0.5,
	}
}

// PaperCommModel returns the CommModel of §IV-A2: DSRC/WAVE with
// free-space path loss, 200-bit packets, 0.1 s beaconing, continuous CCH
// access.
func PaperCommModel() CommModel {
	return CommModel{
		Channel:        phy.DefaultChannelConfig(),
		Schedule:       wave1609.NewSchedule(wave1609.AccessContinuous),
		PacketBits:     200,
		BeaconInterval: 100 * des.Millisecond,
		AC:             mac.ACVideo,
	}
}

// ControllerFactory builds the follower controller for platoon index i
// (i >= 1). Distinct experiments need distinct controller instances
// because controllers may be stateful.
type ControllerFactory func(i int) platoon.Controller

// DefaultControllers returns a factory producing Plexe-default CACCs,
// the controller of the paper's experiments.
func DefaultControllers() ControllerFactory {
	return func(int) platoon.Controller { return platoon.DefaultCACC() }
}

// Simulation is a fully assembled, ready-to-run experiment instance.
type Simulation struct {
	// Kernel is the event kernel; core.Engine drives it phase by phase.
	Kernel *des.Kernel
	// Network is the road network.
	Network *roadnet.Network
	// Traffic is the vehicle dynamics simulator.
	Traffic *traffic.Simulator
	// Air is the shared radio medium (attack injection point).
	Air *nic.Air
	// Members are the platoon members, index 0 = leader ("vehicle.1").
	Members []*platoon.Member

	scenario TrafficScenario
	comm     CommModel
	recs     []trace.Recorder
	started  bool

	// dt is the control period in seconds (cached for preStep).
	dt float64
	// states is the retained per-step sample buffer handed to recorders;
	// reusing it keeps the post-step observer allocation-free.
	states []trace.VehicleSample
}

// preStep issues every member's control command; registered as the
// traffic pre-step hook.
func (s *Simulation) preStep(now des.Time) {
	for _, m := range s.Members {
		m.ControlStep(now, s.dt)
	}
}

// postStep samples all vehicles into the retained buffer and feeds the
// recorders; registered as the traffic post-step hook. Recorders must not
// retain the slice across calls (trace.FullLog copies; trace.Summary
// reduces in place).
func (s *Simulation) postStep(now des.Time) {
	if len(s.recs) == 0 {
		return
	}
	s.sample()
	for _, r := range s.recs {
		r.OnSample(now, s.states)
	}
}

// sample fills the retained sample buffer with every member's current
// state.
func (s *Simulation) sample() {
	if cap(s.states) < len(s.Members) {
		s.states = make([]trace.VehicleSample, len(s.Members))
	}
	s.states = s.states[:len(s.Members)]
	for i, m := range s.Members {
		st := m.Vehicle().State
		s.states[i] = trace.VehicleSample{Pos: st.Pos, Speed: st.Speed, Accel: st.Accel}
	}
}

// VehicleID returns the conventional ID of the 1-based paper vehicle
// number ("Vehicle 2" -> "vehicle.2").
func VehicleID(n int) string { return "vehicle." + strconv.Itoa(n) }

// Build assembles a Simulation from Step-1 configuration. seed drives all
// stochastic components; identical (config, seed) pairs reproduce
// identical runs. Callers running many experiments should reuse a
// Workspace instead, which retains the simulation components across
// builds.
func Build(ts TrafficScenario, cm CommModel, seed uint64, factory ControllerFactory) (*Simulation, error) {
	return NewWorkspace().Build(ts, cm, seed, factory)
}

func kinOf(v *vehicle.Vehicle) platoon.KinState {
	return platoon.KinState{
		Pos:    v.State.Pos,
		Speed:  v.State.Speed,
		Accel:  v.State.Accel,
		Length: v.Spec.Length,
		Valid:  true,
	}
}

// AddRecorder attaches a trace recorder; call before Start.
func (s *Simulation) AddRecorder(r trace.Recorder) { s.recs = append(s.recs, r) }

// AttachContext makes RunUntil honor ctx: once ctx is canceled the kernel
// aborts within `every` events (0 selects des.DefaultInterruptEvery) and
// RunUntil returns an error wrapping ctx.Err(). A context that can never
// be canceled (context.Background, context.TODO) removes the check, so
// the hot loop pays nothing for the plumbing.
func (s *Simulation) AttachContext(ctx context.Context, every uint64) {
	if ctx == nil || ctx.Done() == nil {
		s.Kernel.SetInterruptCheck(0, nil)
		return
	}
	s.Kernel.SetInterruptCheck(every, func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("scenario: simulation canceled at %v: %w", s.Kernel.Now(), err)
		}
		return nil
	})
}

// Scenario returns the Step-1 traffic configuration.
func (s *Simulation) Scenario() TrafficScenario { return s.scenario }

// Comm returns the Step-1 communication configuration.
func (s *Simulation) Comm() CommModel { return s.comm }

// TotalSimTime returns the configured horizon.
func (s *Simulation) TotalSimTime() des.Time { return s.scenario.TotalSimTime }

// VehicleIDs returns the member IDs in platoon order.
func (s *Simulation) VehicleIDs() []string {
	ids := make([]string, len(s.Members))
	for i, m := range s.Members {
		ids[i] = m.ID()
	}
	return ids
}

// Start arms traffic stepping and beaconing. It may be called once.
func (s *Simulation) Start() error {
	if s.started {
		return errors.New("scenario: simulation already started")
	}
	s.started = true
	if err := s.Traffic.Start(); err != nil {
		return err
	}
	for _, m := range s.Members {
		m.Start()
	}
	return nil
}

// RunUntil advances the simulation to the given time. A latched runtime
// invariant violation (TrafficScenario.Invariants) surfaces as its
// invariant.ErrInvariant-wrapping error rather than the kernel's
// ErrStopped.
func (s *Simulation) RunUntil(t des.Time) error {
	err := s.Kernel.RunUntil(t)
	if errors.Is(err, des.ErrStopped) {
		if fault := s.Traffic.Fault(); fault != nil {
			return fault
		}
	}
	return err
}
