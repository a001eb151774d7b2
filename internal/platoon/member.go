package platoon

import (
	"errors"
	"fmt"

	"comfase/internal/geo"
	"comfase/internal/mac"
	"comfase/internal/msg"
	"comfase/internal/nic"
	"comfase/internal/safety"
	"comfase/internal/sim/des"
	"comfase/internal/traffic"
	"comfase/internal/vehicle"
)

// Params configures a platoon, matching the communication and vehicle
// configuration of ComFASE Step-1.
type Params struct {
	// ID names the platoon.
	ID string
	// Spacing is the CACC constant gap in metres (5 m default).
	Spacing float64
	// BeaconInterval is the beaconingTime of the CommModel (paper:
	// 0.1 s).
	BeaconInterval des.Time
	// PayloadBits is the packetSize of the CommModel (paper: 200 bits).
	PayloadBits int
	// AC is the EDCA access category for beacons.
	AC mac.AccessCategory
}

// DefaultParams returns the paper's communication parameters (§IV-A2):
// 200-bit packets every 0.1 s.
func DefaultParams(id string) Params {
	return Params{
		ID:             id,
		Spacing:        5,
		BeaconInterval: 100 * des.Millisecond,
		PayloadBits:    200,
		AC:             mac.ACVideo,
	}
}

// Validate reports the first parameter problem, or nil.
func (p Params) Validate() error {
	switch {
	case p.ID == "":
		return errors.New("platoon: ID must be non-empty")
	case p.Spacing <= 0:
		return errors.New("platoon: spacing must be positive")
	case p.BeaconInterval <= 0:
		return errors.New("platoon: beacon interval must be positive")
	case p.PayloadBits <= 0:
		return errors.New("platoon: payload bits must be positive")
	case !p.AC.Valid():
		return errors.New("platoon: invalid access category")
	}
	return nil
}

// MemberConfig wires one vehicle into a platoon.
type MemberConfig struct {
	// Kernel drives the beacon ticker (required).
	Kernel *des.Kernel
	// Vehicle is the managed vehicle (required).
	Vehicle *vehicle.Vehicle
	// Air is the shared medium to attach the member's radio to
	// (required).
	Air *nic.Air
	// Params are the platoon-wide parameters.
	Params Params
	// Index is the position in the platoon: 0 = leader. The paper's
	// "Vehicle 1" is index 0 and the attacked "Vehicle 2" is index 1.
	Index int
	// Controller computes follower accelerations; required for
	// followers, ignored for the leader.
	Controller Controller
	// Leader is the leader's maneuver tracker; required for the leader,
	// ignored for followers.
	Leader *traffic.SpeedTracker
	// LaneY maps the vehicle's lane index to the antenna's lateral world
	// coordinate. Optional; defaults to 3.2 m lanes.
	LaneY func(lane int) float64
	// Radar measures the true bumper-to-bumper gap and closing speed to
	// the predecessor (Plexe's radar sensor feeding the controllers'
	// spacing terms). Optional; without it controllers fall back to
	// communicated positions.
	Radar func() (gap, relSpeed float64, ok bool)
	// AEB, when non-nil, monitors the radar and overrides the
	// controller with an emergency brake on imminent collisions — the
	// redundant safety mechanism of the paper's future-work section.
	// Requires Radar; ignored for the leader.
	AEB *safety.AEB
}

// Member is one vehicle's platooning application instance: it broadcasts
// beacons, caches leader/predecessor state from received beacons, and
// commands the vehicle every control step.
type Member struct {
	k      *des.Kernel
	veh    *vehicle.Vehicle
	radio  *nic.Radio
	params Params
	index  int

	ctrl    Controller
	tracker *traffic.SpeedTracker
	radar   func() (gap, relSpeed float64, ok bool)
	aeb     *safety.AEB
	laneY   func(lane int) float64

	// posFn, rxFn and wantsFn are the radio wiring callbacks, created
	// once so a pooled member re-registers its radio without allocating
	// closures.
	posFn   func() geo.Vec
	rxFn    nic.RxHandler
	wantsFn nic.RxFilter
	// aebActivations counts control steps on which the AEB overrode the
	// controller.
	aebActivations uint64

	leaderCache KinState
	predCache   KinState

	beaconSeq uint64
	beacons   *des.Ticker

	// rxCount counts beacons accepted into a cache.
	rxCount uint64
}

// NewMember attaches a platooning application to a vehicle and registers
// its radio on the medium.
func NewMember(cfg MemberConfig) (*Member, error) {
	m := &Member{}
	m.posFn = func() geo.Vec {
		return geo.Vec{X: m.veh.State.Pos, Y: m.laneY(m.veh.State.Lane)}
	}
	m.rxFn = m.handleRx
	m.wantsFn = m.wants
	m.beacons = des.NewTicker(nil, des.Millisecond, des.PriorityNormal, m.sendBeacon)
	if err := m.Reset(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset reinitialises the member in place for a new experiment: caches
// and counters are zeroed, the radio is re-registered on the (reset)
// medium, and the beacon ticker is re-targeted. A pooled, reset member
// behaves exactly like one freshly built by NewMember.
func (m *Member) Reset(cfg MemberConfig) error {
	switch {
	case cfg.Kernel == nil:
		return errors.New("platoon: Kernel is required")
	case cfg.Vehicle == nil:
		return errors.New("platoon: Vehicle is required")
	case cfg.Air == nil:
		return errors.New("platoon: Air is required")
	case cfg.Index < 0:
		return errors.New("platoon: negative index")
	}
	if err := cfg.Params.Validate(); err != nil {
		return err
	}
	if cfg.Index == 0 && cfg.Leader == nil {
		return errors.New("platoon: leader requires a maneuver tracker")
	}
	if cfg.Index > 0 && cfg.Controller == nil {
		return errors.New("platoon: follower requires a controller")
	}
	if cfg.AEB != nil {
		if err := cfg.AEB.Validate(); err != nil {
			return err
		}
		if cfg.Index > 0 && cfg.Radar == nil {
			return errors.New("platoon: AEB requires a radar")
		}
	}
	laneY := cfg.LaneY
	if laneY == nil {
		laneY = func(lane int) float64 { return (float64(lane) + 0.5) * 3.2 }
	}
	m.k = cfg.Kernel
	m.veh = cfg.Vehicle
	m.params = cfg.Params
	m.index = cfg.Index
	m.ctrl = cfg.Controller
	m.tracker = cfg.Leader
	m.radar = cfg.Radar
	m.aeb = cfg.AEB
	m.laneY = laneY
	m.aebActivations = 0
	m.leaderCache = KinState{}
	m.predCache = KinState{}
	m.beaconSeq = 0
	m.rxCount = 0
	radio, err := cfg.Air.AddRadio(cfg.Vehicle.Spec.ID, m.posFn, m.rxFn)
	if err != nil {
		return fmt.Errorf("platoon: add radio: %w", err)
	}
	radio.SetFilter(m.wantsFn)
	m.radio = radio
	m.beacons.Rebind(cfg.Kernel, cfg.Params.BeaconInterval)
	return nil
}

// ID returns the member's vehicle ID.
func (m *Member) ID() string { return m.veh.Spec.ID }

// Index returns the member's platoon position (0 = leader).
func (m *Member) Index() int { return m.index }

// Vehicle returns the managed vehicle.
func (m *Member) Vehicle() *vehicle.Vehicle { return m.veh }

// Radio returns the member's network interface.
func (m *Member) Radio() *nic.Radio { return m.radio }

// Controller returns the follower controller (nil for the leader).
func (m *Member) Controller() Controller { return m.ctrl }

// RxCount reports how many beacons were accepted into the caches.
func (m *Member) RxCount() uint64 { return m.rxCount }

// AEBActivations reports how many control steps the AEB monitor
// intervened on (zero without a monitor).
func (m *Member) AEBActivations() uint64 { return m.aebActivations }

// LeaderState returns the cached leader state.
func (m *Member) LeaderState() KinState { return m.leaderCache }

// PredecessorState returns the cached predecessor state.
func (m *Member) PredecessorState() KinState { return m.predCache }

// Seed primes the caches with ground-truth initial states, modelling a
// platoon that was already formed before the simulation window (Plexe
// scenarios start with an established platoon).
func (m *Member) Seed(leader, pred KinState) {
	if m.index == 0 {
		return
	}
	leader.Valid = true
	pred.Valid = true
	m.leaderCache = leader
	m.predCache = pred
}

// Start arms the beacon ticker. Beacons are phase-staggered by platoon
// index (2.5 ms apart) so the CAMs of a freshly started platoon do not
// all contend at the same instant.
func (m *Member) Start() {
	offset := des.Time(m.index) * 2500 * des.Microsecond
	m.beacons.Start(m.k.Now().Add(offset).Add(m.params.BeaconInterval))
}

// Stop disarms the beacon ticker.
func (m *Member) Stop() { m.beacons.StopTicker() }

// sendBeacon broadcasts the member's current kinematic state.
func (m *Member) sendBeacon() {
	m.beaconSeq++
	b := msg.Beacon{
		Source:       m.veh.Spec.ID,
		Seq:          m.beaconSeq,
		SentAt:       m.k.Now(),
		PlatoonID:    m.params.ID,
		PlatoonIndex: m.index,
		Pos:          m.veh.State.Pos,
		Lane:         m.veh.State.Lane,
		Speed:        m.veh.State.Speed,
		Accel:        m.veh.State.Accel,
		Length:       m.veh.Spec.Length,
	}
	// Queue-full drops are legitimate MAC behaviour under attack-induced
	// congestion; the next beacon will carry fresher state anyway.
	_ = m.radio.SendBeacon(b, m.params.PayloadBits, m.params.AC, m.beaconSeq)
}

// wants is the member's receive filter: a beacon of its own platoon from
// the leader (read by followers) or from its predecessor. handleRx reads
// nothing else, so the medium need not hand it anything else.
func (m *Member) wants(f *mac.Frame) bool {
	if !f.HasBeacon || f.Beacon.PlatoonID != m.params.ID {
		return false
	}
	i := f.Beacon.PlatoonIndex
	return i == 0 && m.index > 0 || i == m.index-1
}

// handleRx caches leader/predecessor beacons. Only fresher states (by
// sender time stamp) replace the cache, so a delayed frame that arrives
// after a newer one cannot roll the cache back.
func (m *Member) handleRx(f *mac.Frame, meta nic.RxMeta) {
	if !m.wants(f) {
		return
	}
	b := &f.Beacon
	st := KinState{
		Pos:    b.Pos,
		Speed:  b.Speed,
		Accel:  b.Accel,
		Length: b.Length,
		Time:   b.SentAt,
		Valid:  true,
	}
	accepted := false
	if b.PlatoonIndex == 0 && m.index > 0 && b.SentAt >= m.leaderCache.Time {
		m.leaderCache = st
		accepted = true
	}
	if b.PlatoonIndex == m.index-1 && b.SentAt >= m.predCache.Time {
		m.predCache = st
		accepted = true
	}
	if accepted {
		m.rxCount++
	}
}

// ControlStep computes and issues the member's acceleration command. It
// is registered as a traffic pre-step hook; dt is the control period in
// seconds.
func (m *Member) ControlStep(now des.Time, dt float64) {
	if m.index == 0 {
		m.veh.Command(m.tracker.AccelAt(now, m.veh.State))
		return
	}
	self := Snapshot{
		Pos:    m.veh.State.Pos,
		Speed:  m.veh.State.Speed,
		Accel:  m.veh.State.Accel,
		Length: m.veh.Spec.Length,
	}
	if m.radar != nil {
		self.RadarGap, self.RadarRelSpeed, self.RadarValid = m.radar()
	}
	cmd := m.ctrl.Update(dt, self, m.leaderCache, m.predCache)
	if m.aeb != nil && self.RadarValid {
		filtered, active := m.aeb.Filter(cmd, self.RadarGap, self.RadarRelSpeed)
		if active {
			m.aebActivations++
		}
		cmd = filtered
	}
	m.veh.Command(cmd)
}
