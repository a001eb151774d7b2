package scenario

import (
	"fmt"

	"comfase/internal/nic"
	"comfase/internal/platoon"
	"comfase/internal/roadnet"
	"comfase/internal/sim/des"
	"comfase/internal/trace"
	"comfase/internal/traffic"
	"comfase/internal/vehicle"
)

// Workspace retains the heavyweight simulation components — kernel,
// traffic simulator, radio medium, platoon members, vehicles and the
// road network — across experiment builds. A campaign worker keeps one
// Workspace and calls Build per experiment: every component is reset in
// place instead of reallocated, so consecutive experiments run with a
// near-constant memory footprint.
//
// Builds from a reused Workspace are bit-for-bit identical to builds
// from a fresh one: every Reset restores exactly the state its
// constructor leaves behind, and all random streams are reseeded from
// (seed, name). The determinism suite pins this equivalence.
//
// A Workspace is not safe for concurrent use, and a Simulation returned
// by Build is invalidated by the next Build on the same Workspace. If
// Build returns an error the Workspace may be partially reset and must
// be discarded.
type Workspace struct {
	kernel  *des.Kernel
	network *roadnet.Network
	road    roadnet.RoadSpec
	haveNet bool
	traffic *traffic.Simulator
	air     *nic.Air
	members []*platoon.Member
	tracker traffic.SpeedTracker
	sim     Simulation

	// epoch counts Builds on this workspace. A Checkpoint records the
	// epoch it was taken under, and Restore rejects checkpoints from a
	// different build: kernel handlers are closures into the build-time
	// object graph, so a snapshot is only meaningful in place, on the
	// exact simulation instance it was taken from.
	epoch uint64
}

// NewWorkspace returns an empty workspace; the first Build populates it.
func NewWorkspace() *Workspace { return &Workspace{} }

// Build assembles a Simulation exactly like the package-level Build, but
// reuses the workspace's retained components. The road network is kept
// when the RoadSpec is unchanged (it is immutable once constructed);
// everything else is reset in place.
func (w *Workspace) Build(ts TrafficScenario, cm CommModel, seed uint64, factory ControllerFactory) (*Simulation, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		factory = DefaultControllers()
	}
	w.epoch++

	if w.kernel == nil {
		w.kernel = des.NewKernel()
	} else {
		w.kernel.Reset()
	}
	k := w.kernel

	if !w.haveNet || w.road != ts.Road {
		net, err := roadnet.NewNetwork(ts.Road)
		if err != nil {
			return nil, err
		}
		w.network = net
		w.road = ts.Road
		w.haveNet = true
	}
	net := w.network

	tcfg := traffic.Config{Kernel: k, Network: net, StepLength: ts.StepLength, Invariants: ts.Invariants}
	if w.traffic == nil {
		sim, err := traffic.NewSimulator(tcfg)
		if err != nil {
			return nil, err
		}
		w.traffic = sim
	} else if err := w.traffic.Reset(tcfg); err != nil {
		return nil, err
	}
	sim := w.traffic

	acfg := nic.Config{Kernel: k, Channel: cm.Channel, Schedule: cm.Schedule, Seed: seed}
	if w.air == nil {
		air, err := nic.NewAir(acfg)
		if err != nil {
			return nil, err
		}
		w.air = air
	} else if err := w.air.Reset(acfg); err != nil {
		return nil, err
	}
	air := w.air

	s := &w.sim
	s.Kernel = k
	s.Network = net
	s.Traffic = sim
	s.Air = air
	s.scenario = ts
	s.comm = cm
	for i := range s.recs {
		s.recs[i] = nil
	}
	s.recs = s.recs[:0]
	s.started = false
	s.dt = sim.StepLength().Seconds()
	for i := range s.Members {
		s.Members[i] = nil
	}
	s.Members = s.Members[:0]
	// Pre-size the retained post-step sample buffer for this build's
	// member count, so pooled workspaces cycling between scenarios of
	// different platoon sizes never regrow it mid-run.
	if cap(s.states) < ts.NrVehicles {
		s.states = make([]trace.VehicleSample, ts.NrVehicles)
	}
	s.states = s.states[:0]

	params := platoon.Params{
		ID:             "platoon.0",
		Spacing:        5,
		BeaconInterval: cm.BeaconInterval,
		PayloadBits:    cm.PacketBits,
		AC:             cm.AC,
	}
	// The tracker keeps its per-step profile memo across builds; the new
	// maneuver starts it over.
	w.tracker.Maneuver = ts.Maneuver
	w.tracker.Gain = ts.TrackerGain
	w.tracker.LagComp = ts.TrackerLagComp
	w.tracker.SetStepGrid(sim.StepLength(), ts.TotalSimTime)
	tracker := &w.tracker

	v0 := ts.Maneuver.TargetSpeed(0)
	a0 := ts.Maneuver.FeedforwardAccel(0)
	lane, err := net.Lane(ts.Road.ID, ts.Lane)
	if err != nil {
		return nil, err
	}

	for i := 0; i < ts.NrVehicles; i++ {
		spec := ts.VehicleTemplate
		spec.ID = VehicleID(i + 1)
		gapStride := params.Spacing + spec.Length
		st := vehicle.State{
			Pos:   ts.LeaderStartPos - float64(float64(i)*gapStride),
			Speed: v0,
			Accel: a0,
			Lane:  ts.Lane,
		}
		veh, err := sim.AddVehicle(spec, st)
		if err != nil {
			return nil, err
		}
		var ctrl platoon.Controller
		var radar func() (float64, float64, bool)
		if i > 0 {
			ctrl = factory(i)
			if ctrl == nil {
				return nil, fmt.Errorf("scenario: controller factory returned nil for index %d", i)
			}
			// Radar measures ground truth against the predecessor, like
			// Plexe's SUMO-backed radar sensor.
			pred, self := sim.Vehicles()[i-1], veh
			radar = func() (float64, float64, bool) {
				gap := pred.State.Rear(pred.Spec.Length) - self.State.Pos
				return gap, self.State.Speed - pred.State.Speed, true
			}
		}
		mc := platoon.MemberConfig{
			Kernel:     k,
			Vehicle:    veh,
			Air:        air,
			Params:     params,
			Index:      i,
			Controller: ctrl,
			Leader:     tracker,
			LaneY:      func(int) float64 { return lane.CenterY },
			Radar:      radar,
			AEB:        ts.AEB,
		}
		var member *platoon.Member
		if i < len(w.members) {
			member = w.members[i]
			if err := member.Reset(mc); err != nil {
				return nil, err
			}
		} else {
			member, err = platoon.NewMember(mc)
			if err != nil {
				return nil, err
			}
			w.members = append(w.members, member)
		}
		s.Members = append(s.Members, member)
	}

	// Seed follower caches with ground truth at t=0: the platoon is
	// already formed when the experiment window opens.
	leaderVeh := s.Members[0].Vehicle()
	for i := 1; i < len(s.Members); i++ {
		predVeh := s.Members[i-1].Vehicle()
		s.Members[i].Seed(kinOf(leaderVeh), kinOf(predVeh))
	}

	sim.OnPreStep(s.preStep)
	sim.OnPostStep(s.postStep)
	return s, nil
}
