// Package traffic is the microscopic traffic simulator of ComFASE-Go —
// the dynamic half of our SUMO substitute. It steps vehicle dynamics on
// the shared discrete-event kernel, detects rear-end collisions with
// SUMO-style collider attribution, and exposes pre/post-step hooks that
// the platooning controllers and trace loggers attach to.
package traffic

import (
	"errors"
	"fmt"
	"slices"

	"comfase/internal/invariant"
	"comfase/internal/roadnet"
	"comfase/internal/sim/des"
	"comfase/internal/vehicle"
)

// Errors returned by the simulator API.
var (
	ErrDuplicateVehicle = errors.New("traffic: duplicate vehicle ID")
	ErrUnknownVehicle   = errors.New("traffic: unknown vehicle")
	ErrStarted          = errors.New("traffic: simulator already started")
)

// StepHook is a callback invoked once per simulation step. Pre-step hooks
// run before dynamics integrate (controllers set acceleration commands
// there); post-step hooks run after integration and collision detection
// (loggers sample there).
type StepHook func(now des.Time)

// Simulator owns the vehicles of a scenario and advances their dynamics
// at a fixed step on the DES kernel, mirroring how Veins couples OMNeT++
// to SUMO via TraCI at a fixed step length (Plexe default: 10 ms).
type Simulator struct {
	k   *des.Kernel
	net *roadnet.Network

	stepLen des.Time
	dt      float64

	vehicles []*vehicle.Vehicle
	byID     map[string]*vehicle.Vehicle
	// spare holds vehicles detached by Reset, recycled by AddVehicle so a
	// reused simulator repopulates without reallocating vehicle objects.
	spare []*vehicle.Vehicle
	// laneOrder is the vehicles sorted by (lane, position), as built by
	// the last detectCollisions and reused while it stays strictly
	// increasing; laneOrderOK is false until it is built for the current
	// vehicle set.
	laneOrder   []*vehicle.Vehicle
	laneOrderOK bool

	// inv enables the runtime invariant checks (internal/invariant) on
	// every step; prevPos is the retained pre-step position buffer the
	// monotonicity check compares against, and fault latches the first
	// violation (the kernel is stopped so the run aborts promptly).
	inv     bool
	prevPos []float64
	fault   error

	pre  []StepHook
	post []StepHook

	// collisions is the collision log, one entry per colliding pair: a
	// wreck that stays overlapped is not re-reported (see reported).
	collisions  []Collision
	onCollision []func(Collision)

	ticker  *des.Ticker
	started bool
}

// Config configures a Simulator.
type Config struct {
	// Kernel is the event kernel driving the simulation (required).
	Kernel *des.Kernel
	// Network is the road network (required).
	Network *roadnet.Network
	// StepLength is the dynamics update period. Zero defaults to 10 ms,
	// Plexe's SUMO coupling step.
	StepLength des.Time
	// Invariants enables the per-step runtime sanity checks (finite
	// state, position monotonicity, handled overlaps). A violation
	// latches into Fault() and stops the kernel, so silent numeric
	// corruption aborts the run instead of producing a bogus result.
	Invariants bool
}

// NewSimulator builds an empty traffic simulation.
func NewSimulator(cfg Config) (*Simulator, error) {
	s := &Simulator{
		byID: make(map[string]*vehicle.Vehicle, 8),
	}
	s.ticker = des.NewTicker(nil, des.Millisecond, des.PriorityLast, s.step)
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset reinitialises the simulator in place for a new experiment:
// vehicles are detached into a spare pool that AddVehicle recycles, all
// hooks and collision state are cleared, and the stepping ticker is
// re-targeted at the configured kernel. A reset simulator behaves exactly
// like a freshly constructed one.
func (s *Simulator) Reset(cfg Config) error {
	if cfg.Kernel == nil {
		return errors.New("traffic: Config.Kernel is required")
	}
	if cfg.Network == nil {
		return errors.New("traffic: Config.Network is required")
	}
	step := cfg.StepLength
	if step <= 0 {
		step = 10 * des.Millisecond
	}
	s.k = cfg.Kernel
	s.net = cfg.Network
	s.stepLen = step
	s.dt = step.Seconds()
	for i, v := range s.vehicles {
		s.spare = append(s.spare, v)
		s.vehicles[i] = nil
	}
	s.vehicles = s.vehicles[:0]
	clear(s.byID)
	s.laneOrderOK = false
	// Hooks and listeners hold closures into the previous experiment's
	// object graph; nil the slots so the retained arrays do not pin it.
	for i := range s.pre {
		s.pre[i] = nil
	}
	s.pre = s.pre[:0]
	for i := range s.post {
		s.post[i] = nil
	}
	s.post = s.post[:0]
	for i := range s.onCollision {
		s.onCollision[i] = nil
	}
	s.onCollision = s.onCollision[:0]
	s.collisions = s.collisions[:0]
	s.ticker.Rebind(cfg.Kernel, step)
	s.started = false
	s.inv = cfg.Invariants
	s.fault = nil
	return nil
}

// AddVehicle inserts a vehicle into the simulation. Vehicles must be
// added before Start. Vehicles detached by a prior Reset are recycled.
func (s *Simulator) AddVehicle(spec vehicle.Spec, st vehicle.State) (*vehicle.Vehicle, error) {
	if s.started {
		return nil, ErrStarted
	}
	if _, dup := s.byID[spec.ID]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateVehicle, spec.ID)
	}
	var v *vehicle.Vehicle
	if n := len(s.spare); n > 0 {
		v = s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
		if err := v.Reset(spec, st); err != nil {
			s.spare = append(s.spare, v)
			return nil, err
		}
	} else {
		var err error
		v, err = vehicle.New(spec, st)
		if err != nil {
			return nil, err
		}
	}
	s.vehicles = append(s.vehicles, v)
	s.byID[spec.ID] = v
	s.laneOrderOK = false
	return v, nil
}

// Vehicle returns a vehicle by ID.
func (s *Simulator) Vehicle(id string) (*vehicle.Vehicle, error) {
	v, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownVehicle, id)
	}
	return v, nil
}

// Vehicles returns the vehicles in insertion order. The returned slice
// is a copy; the pointed-to vehicles are live.
func (s *Simulator) Vehicles() []*vehicle.Vehicle {
	out := make([]*vehicle.Vehicle, len(s.vehicles))
	copy(out, s.vehicles)
	return out
}

// NumVehicles reports the number of vehicles without copying the list.
func (s *Simulator) NumVehicles() int { return len(s.vehicles) }

// OnPreStep registers a controller hook (runs before dynamics).
func (s *Simulator) OnPreStep(h StepHook) { s.pre = append(s.pre, h) }

// OnPostStep registers an observer hook (runs after dynamics and
// collision detection).
func (s *Simulator) OnPostStep(h StepHook) { s.post = append(s.post, h) }

// OnCollision registers a collision listener, invoked at detection time.
func (s *Simulator) OnCollision(f func(Collision)) {
	s.onCollision = append(s.onCollision, f)
}

// Collisions returns a copy of the collision log.
func (s *Simulator) Collisions() []Collision {
	out := make([]Collision, len(s.collisions))
	copy(out, s.collisions)
	return out
}

// CollisionCount reports the number of recorded collision incidents
// without copying the log — cheap enough for high-cadence polling (the
// engine's early-exit decision checks).
func (s *Simulator) CollisionCount() int { return len(s.collisions) }

// StepLength reports the dynamics step period.
func (s *Simulator) StepLength() des.Time { return s.stepLen }

// Network returns the road network.
func (s *Simulator) Network() *roadnet.Network { return s.net }

// Start schedules the periodic dynamics stepping, with the first step one
// step length after the current kernel time. It may be called once.
func (s *Simulator) Start() error {
	if s.started {
		return ErrStarted
	}
	s.started = true
	s.ticker.Start(s.k.Now().Add(s.stepLen))
	return nil
}

// step is one simulation tick: controllers, integration, collisions,
// observers. It runs at PriorityLast so every radio frame delivered at
// the same time stamp is already processed.
func (s *Simulator) step() {
	now := s.k.Now()
	for _, h := range s.pre {
		h(now)
	}
	if s.inv {
		if cap(s.prevPos) < len(s.vehicles) {
			s.prevPos = make([]float64, len(s.vehicles))
		}
		s.prevPos = s.prevPos[:len(s.vehicles)]
		for i, v := range s.vehicles {
			s.prevPos[i] = v.State.Pos
		}
	}
	for _, v := range s.vehicles {
		v.Step(s.dt)
	}
	s.detectCollisions(now)
	if s.inv && s.checkInvariants(now) {
		return // fault latched; kernel stopping — skip the observers
	}
	for _, h := range s.post {
		h(now)
	}
}

// Fault reports the first invariant violation observed during stepping
// (nil while the simulation is healthy). Once a fault latches the kernel
// has been stopped; callers translate the resulting des.ErrStopped into
// this error.
func (s *Simulator) Fault() error { return s.fault }

// checkInvariants validates the post-step world when invariant checking
// is enabled: every vehicle's state via vehicle.CheckState, plus the
// collision-handling consistency check (overlapping vehicles must have
// been halted by detectCollisions — anything else means the integrator
// or an attack model let vehicles drive through each other). The first
// violation latches into s.fault and stops the kernel; the return value
// reports whether that happened. laneOrder holds the (lane,
// position)-sorted order detectCollisions used this step.
func (s *Simulator) checkInvariants(now des.Time) bool {
	fail := func(err error) bool {
		s.fault = fmt.Errorf("traffic: at %v: %w", now, err)
		s.k.Stop()
		return true
	}
	for i, v := range s.vehicles {
		if err := v.CheckState(s.prevPos[i]); err != nil {
			return fail(err)
		}
	}
	if len(s.vehicles) < 2 {
		return false // laneOrder is only (re)built with >= 2 vehicles
	}
	for i := 0; i+1 < len(s.laneOrder); i++ {
		rear, front := s.laneOrder[i], s.laneOrder[i+1]
		if rear.State.Lane != front.State.Lane {
			continue
		}
		gap := front.State.Rear(front.Spec.Length) - rear.State.Pos
		if err := invariant.CheckHandledOverlap(rear.Spec.ID, front.Spec.ID, gap,
			rear.Halted() && front.Halted()); err != nil {
			return fail(err)
		}
	}
	return false
}

// detectCollisions finds rear-end overlaps per lane. Vehicles are sorted
// by position; an overlap between consecutive vehicles is reported once
// (per colliding pair) with the rear vehicle as the collider, matching
// SUMO's collision output semantics. Both vehicles are halted in place
// (SUMO collision.action = "stop"), so trailing traffic may subsequently
// pile into the wreck — the effect the paper observes on Vehicles 3/4.
func (s *Simulator) detectCollisions(now des.Time) {
	if len(s.vehicles) < 2 {
		return
	}
	s.sortLanes()
	for i := 0; i+1 < len(s.laneOrder); i++ {
		rear, front := s.laneOrder[i], s.laneOrder[i+1]
		if rear.State.Lane != front.State.Lane {
			continue
		}
		if rear.State.Pos < front.State.Rear(front.Spec.Length) {
			continue // gap open
		}
		if s.reported(rear.Spec.ID, front.Spec.ID) {
			continue
		}
		c := Collision{
			Time:     now,
			Collider: rear.Spec.ID,
			Victim:   front.Spec.ID,
			Lane:     rear.State.Lane,
			Pos:      rear.State.Pos,
			RelSpeed: rear.State.Speed - front.State.Speed,
		}
		rear.Halt()
		front.Halt()
		s.collisions = append(s.collisions, c)
		for _, f := range s.onCollision {
			f(c)
		}
	}
}

// sortLanes brings laneOrder to what slices.SortStableFunc(laneCmp)
// makes of a copy of s.vehicles. Vehicles rarely overtake within a step,
// so last step's order usually still holds: if it is a permutation of
// the current vehicle set and strictly increasing under laneCmp, it is
// the only sorted order and therefore the stable sort's result. Any tie
// or inversion rebuilds it from s.vehicles, whose order breaks ties.
func (s *Simulator) sortLanes() {
	if s.laneOrderOK {
		sorted := true
		for i := 0; i+1 < len(s.laneOrder); i++ {
			if laneCmp(s.laneOrder[i], s.laneOrder[i+1]) >= 0 {
				sorted = false
				break
			}
		}
		if sorted {
			return
		}
	}
	s.laneOrder = append(s.laneOrder[:0], s.vehicles...)
	slices.SortStableFunc(s.laneOrder, laneCmp)
	s.laneOrderOK = true
}

// laneCmp orders vehicles by lane, then by position along it. Lanes are
// visited in a deterministic order, so same-step collision reports never
// permute across lanes.
func laneCmp(a, b *vehicle.Vehicle) int {
	if a.State.Lane != b.State.Lane {
		return a.State.Lane - b.State.Lane
	}
	switch {
	case a.State.Pos < b.State.Pos:
		return -1
	case a.State.Pos > b.State.Pos:
		return 1
	}
	return 0
}

// reported reports whether the pair (collider, victim) is already in the
// collision log. The log holds one entry per pair, so it is at most a
// handful long, and the scan allocates nothing where a set keyed on the
// pair would build a key string on every step a wreck stays overlapped.
func (s *Simulator) reported(collider, victim string) bool {
	for i := range s.collisions {
		if s.collisions[i].Collider == collider && s.collisions[i].Victim == victim {
			return true
		}
	}
	return false
}
