package platoon

import (
	"testing"

	"comfase/internal/mac"
	"comfase/internal/msg"
	"comfase/internal/nic"
	"comfase/internal/phy"
	"comfase/internal/sim/des"
	"comfase/internal/traffic"
	"comfase/internal/vehicle"
	"comfase/internal/wave1609"
)

// memberRig is a two-member platoon (leader + one follower) on a real
// medium, without the traffic simulator: control steps are driven by
// hand.
type memberRig struct {
	k        *des.Kernel
	air      *nic.Air
	leader   *Member
	follower *Member
	lv, fv   *vehicle.Vehicle
}

func newMemberRig(t *testing.T) *memberRig {
	t.Helper()
	k := des.NewKernel()
	air, err := nic.NewAir(nic.Config{
		Kernel:   k,
		Channel:  phy.DefaultChannelConfig(),
		Schedule: wave1609.NewSchedule(wave1609.AccessContinuous),
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("NewAir: %v", err)
	}
	lv, err := vehicle.New(vehicle.PaperCar("vehicle.1"), vehicle.State{Pos: 109, Speed: 25})
	if err != nil {
		t.Fatalf("vehicle.New: %v", err)
	}
	fv, err := vehicle.New(vehicle.PaperCar("vehicle.2"), vehicle.State{Pos: 100, Speed: 25})
	if err != nil {
		t.Fatalf("vehicle.New: %v", err)
	}
	params := DefaultParams("platoon.0")
	tracker := &traffic.SpeedTracker{Maneuver: traffic.ConstantSpeed{Speed: 25}}
	leader, err := NewMember(MemberConfig{
		Kernel: k, Vehicle: lv, Air: air, Params: params, Index: 0, Leader: tracker,
	})
	if err != nil {
		t.Fatalf("NewMember(leader): %v", err)
	}
	follower, err := NewMember(MemberConfig{
		Kernel: k, Vehicle: fv, Air: air, Params: params, Index: 1,
		Controller: DefaultCACC(),
		Radar: func() (float64, float64, bool) {
			return lv.State.Rear(lv.Spec.Length) - fv.State.Pos,
				fv.State.Speed - lv.State.Speed, true
		},
	})
	if err != nil {
		t.Fatalf("NewMember(follower): %v", err)
	}
	return &memberRig{k: k, air: air, leader: leader, follower: follower, lv: lv, fv: fv}
}

func TestNewMemberValidation(t *testing.T) {
	k := des.NewKernel()
	air, _ := nic.NewAir(nic.Config{
		Kernel:   k,
		Channel:  phy.DefaultChannelConfig(),
		Schedule: wave1609.NewSchedule(wave1609.AccessContinuous),
	})
	veh, _ := vehicle.New(vehicle.PaperCar("v"), vehicle.State{})
	params := DefaultParams("p")
	tracker := &traffic.SpeedTracker{Maneuver: traffic.ConstantSpeed{Speed: 25}}

	tests := []struct {
		name string
		cfg  MemberConfig
	}{
		{name: "nil kernel", cfg: MemberConfig{Vehicle: veh, Air: air, Params: params, Leader: tracker}},
		{name: "nil vehicle", cfg: MemberConfig{Kernel: k, Air: air, Params: params, Leader: tracker}},
		{name: "nil air", cfg: MemberConfig{Kernel: k, Vehicle: veh, Params: params, Leader: tracker}},
		{name: "negative index", cfg: MemberConfig{Kernel: k, Vehicle: veh, Air: air, Params: params, Index: -1, Leader: tracker}},
		{name: "leader without tracker", cfg: MemberConfig{Kernel: k, Vehicle: veh, Air: air, Params: params, Index: 0}},
		{name: "follower without controller", cfg: MemberConfig{Kernel: k, Vehicle: veh, Air: air, Params: params, Index: 1}},
		{name: "bad params", cfg: MemberConfig{Kernel: k, Vehicle: veh, Air: air, Params: Params{}, Leader: tracker}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewMember(tt.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams("p").Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{name: "empty id", mutate: func(p *Params) { p.ID = "" }},
		{name: "zero spacing", mutate: func(p *Params) { p.Spacing = 0 }},
		{name: "zero beacon", mutate: func(p *Params) { p.BeaconInterval = 0 }},
		{name: "zero payload", mutate: func(p *Params) { p.PayloadBits = 0 }},
		{name: "bad ac", mutate: func(p *Params) { p.AC = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams("p")
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("invalid params accepted")
			}
		})
	}
}

func TestBeaconsPopulateFollowerCache(t *testing.T) {
	rig := newMemberRig(t)
	rig.leader.Start()
	rig.follower.Start()
	if err := rig.k.RunUntil(des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if rig.follower.RxCount() == 0 {
		t.Fatal("follower accepted no beacons")
	}
	lead := rig.follower.LeaderState()
	if !lead.Valid || lead.Pos != 109 || lead.Speed != 25 || lead.Length != 4 {
		t.Errorf("leader cache = %+v", lead)
	}
	pred := rig.follower.PredecessorState()
	if !pred.Valid || pred.Pos != lead.Pos {
		t.Errorf("pred cache = %+v (leader is the predecessor at index 1)", pred)
	}
	// The leader never caches anything (no predecessor, no leader above).
	if rig.leader.RxCount() != 0 {
		t.Errorf("leader cached %d beacons", rig.leader.RxCount())
	}
}

func TestStaleBeaconDoesNotRollBackCache(t *testing.T) {
	rig := newMemberRig(t)
	fresh := msg.Beacon{
		Source: "vehicle.1", PlatoonID: "platoon.0", PlatoonIndex: 0,
		SentAt: 10 * des.Second, Speed: 30, Pos: 200, Length: 4,
	}
	stale := fresh
	stale.SentAt = 5 * des.Second
	stale.Speed = 11

	rig.follower.Seed(KinState{}, KinState{})
	injectBeacon(rig.follower, fresh)
	injectBeacon(rig.follower, stale)
	if got := rig.follower.LeaderState().Speed; got != 30 {
		t.Errorf("stale beacon rolled cache back: speed %v", got)
	}
}

func TestForeignPlatoonBeaconIgnored(t *testing.T) {
	rig := newMemberRig(t)
	foreign := msg.Beacon{
		Source: "stranger", PlatoonID: "platoon.OTHER", PlatoonIndex: 0,
		SentAt: des.Second, Speed: 99,
	}
	injectBeacon(rig.follower, foreign)
	if rig.follower.LeaderState().Speed == 99 {
		t.Error("foreign-platoon beacon accepted")
	}
	if rig.follower.RxCount() != 0 {
		t.Error("foreign beacon counted")
	}
}

func TestNonBeaconPayloadIgnored(t *testing.T) {
	rig := newMemberRig(t)
	f := mac.Frame{Src: "vehicle.1", Bits: 424, AC: mac.ACVideo, Payload: "not a beacon"}
	rig.follower.handleRx(&f, nic.RxMeta{})
	if rig.follower.RxCount() != 0 {
		t.Error("non-beacon payload accepted")
	}
}

func TestControlStepLeaderTracksManeuver(t *testing.T) {
	rig := newMemberRig(t)
	rig.lv.State.Speed = 20 // below the 25 m/s target
	rig.leader.ControlStep(0, 0.01)
	if rig.lv.Commanded() <= 0 {
		t.Errorf("leader command = %v, want positive toward target", rig.lv.Commanded())
	}
}

func TestControlStepFollowerUsesCachesAndRadar(t *testing.T) {
	rig := newMemberRig(t)
	rig.follower.Seed(
		KinState{Pos: 109, Speed: 25, Length: 4},
		KinState{Pos: 109, Speed: 25, Length: 4},
	)
	// Equilibrium: gap 5 m, matched speeds -> ~zero command.
	rig.follower.ControlStep(0, 0.01)
	if cmd := rig.fv.Commanded(); cmd < -0.01 || cmd > 0.01 {
		t.Errorf("equilibrium command = %v", cmd)
	}
	// Shrink the true gap; radar harvests it even with stale comms.
	rig.fv.State.Pos = 103
	rig.follower.ControlStep(0, 0.01)
	if cmd := rig.fv.Commanded(); cmd >= 0 {
		t.Errorf("close-gap command = %v, want braking", cmd)
	}
}

func TestStopDisarmsBeacons(t *testing.T) {
	rig := newMemberRig(t)
	rig.leader.Start()
	rig.leader.Stop()
	if err := rig.k.RunUntil(des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if rig.follower.RxCount() != 0 {
		t.Error("beacons sent after Stop")
	}
}

func TestSeedNoopForLeader(t *testing.T) {
	rig := newMemberRig(t)
	rig.leader.Seed(KinState{Speed: 99}, KinState{Speed: 99})
	if rig.leader.LeaderState().Valid {
		t.Error("leader cache seeded")
	}
}

func TestMemberAccessors(t *testing.T) {
	rig := newMemberRig(t)
	if rig.follower.ID() != "vehicle.2" || rig.follower.Index() != 1 {
		t.Error("accessors wrong")
	}
	if rig.follower.Vehicle() != rig.fv || rig.follower.Radio() == nil {
		t.Error("vehicle/radio accessors wrong")
	}
	if rig.follower.Controller().Name() != "CACC" {
		t.Error("controller accessor wrong")
	}
}

// injectBeacon feeds a beacon directly into the member's rx path.
func injectBeacon(m *Member, b msg.Beacon) {
	f := macFrame(b.Source, b)
	m.handleRx(&f, nic.RxMeta{})
}

func macFrame(src string, b msg.Beacon) mac.Frame {
	return mac.Frame{Src: src, Bits: 424, AC: mac.ACVideo, Beacon: b, HasBeacon: true}
}
