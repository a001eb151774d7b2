package teleop

import (
	"testing"

	"comfase/internal/geo"
	"comfase/internal/mac"
	"comfase/internal/nic"
	"comfase/internal/phy"
	"comfase/internal/roadnet"
	"comfase/internal/sim/des"
	"comfase/internal/traffic"
	"comfase/internal/vehicle"
	"comfase/internal/wave1609"
)

// rig is a minimal teleoperation scene: an operator at the roadside and
// one remote vehicle on a traffic simulator.
type rig struct {
	k   *des.Kernel
	air *nic.Air
	sim *traffic.Simulator
	op  *Operator
	rv  *RemoteVehicle
}

func newRig(t *testing.T, watchdog des.Time, policy Policy) *rig {
	t.Helper()
	k := des.NewKernel()
	net, err := roadnet.NewNetwork(roadnet.PaperHighway())
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	sim, err := traffic.NewSimulator(traffic.Config{Kernel: k, Network: net})
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	air, err := nic.NewAir(nic.Config{
		Kernel:   k,
		Channel:  phy.DefaultChannelConfig(),
		Schedule: wave1609.NewSchedule(wave1609.AccessContinuous),
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("NewAir: %v", err)
	}
	veh, err := sim.AddVehicle(vehicle.PaperCar("remote"), vehicle.State{Pos: 100, Speed: 0})
	if err != nil {
		t.Fatalf("AddVehicle: %v", err)
	}
	rv, err := NewRemoteVehicle(RemoteVehicleConfig{
		Kernel: k, Air: air, Vehicle: veh, Watchdog: watchdog,
	})
	if err != nil {
		t.Fatalf("NewRemoteVehicle: %v", err)
	}
	op, err := NewOperator(OperatorConfig{
		Kernel: k, Air: air, Position: geo.Vec{X: 100, Y: 20}, Policy: policy,
	})
	if err != nil {
		t.Fatalf("NewOperator: %v", err)
	}
	dt := sim.StepLength().Seconds()
	sim.OnPreStep(func(now des.Time) { rv.ControlStep(now, dt) })
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return &rig{k: k, air: air, sim: sim, op: op, rv: rv}
}

func constantSpeedPolicy(v float64) Policy {
	return func(des.Time) Command { return Command{TargetSpeed: v} }
}

func TestOperatorValidation(t *testing.T) {
	k := des.NewKernel()
	air, _ := nic.NewAir(nic.Config{
		Kernel: k, Channel: phy.DefaultChannelConfig(),
		Schedule: wave1609.NewSchedule(wave1609.AccessContinuous),
	})
	pol := constantSpeedPolicy(10)
	if _, err := NewOperator(OperatorConfig{Air: air, Policy: pol}); err == nil {
		t.Error("nil kernel accepted")
	}
	if _, err := NewOperator(OperatorConfig{Kernel: k, Policy: pol}); err == nil {
		t.Error("nil air accepted")
	}
	if _, err := NewOperator(OperatorConfig{Kernel: k, Air: air}); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestRemoteVehicleValidation(t *testing.T) {
	k := des.NewKernel()
	air, _ := nic.NewAir(nic.Config{
		Kernel: k, Channel: phy.DefaultChannelConfig(),
		Schedule: wave1609.NewSchedule(wave1609.AccessContinuous),
	})
	veh, _ := vehicle.New(vehicle.PaperCar("v"), vehicle.State{})
	if _, err := NewRemoteVehicle(RemoteVehicleConfig{Air: air, Vehicle: veh}); err == nil {
		t.Error("nil kernel accepted")
	}
	if _, err := NewRemoteVehicle(RemoteVehicleConfig{Kernel: k, Vehicle: veh}); err == nil {
		t.Error("nil air accepted")
	}
	if _, err := NewRemoteVehicle(RemoteVehicleConfig{Kernel: k, Air: air}); err == nil {
		t.Error("nil vehicle accepted")
	}
	if _, err := NewRemoteVehicle(RemoteVehicleConfig{
		Kernel: k, Air: air, Vehicle: veh, Watchdog: -1,
	}); err == nil {
		t.Error("negative watchdog accepted")
	}
}

func TestRemoteVehicleTracksCommandedSpeed(t *testing.T) {
	r := newRig(t, 0, constantSpeedPolicy(15))
	r.op.Start()
	if err := r.k.RunUntil(20 * des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if got := r.rv.Vehicle().State.Speed; got < 14.5 || got > 15.5 {
		t.Errorf("speed = %v, want ~15", got)
	}
	if r.rv.Received() == 0 || r.op.Sent == 0 {
		t.Error("no commands flowed")
	}
	if age := r.rv.LastCommandAge(); age > 100*des.Millisecond {
		t.Errorf("command age = %v, want fresh", age)
	}
}

func TestRemoteVehicleIdleWithoutCommands(t *testing.T) {
	r := newRig(t, 0, constantSpeedPolicy(15))
	// Operator never started.
	if err := r.k.RunUntil(5 * des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if got := r.rv.Vehicle().State.Speed; got != 0 {
		t.Errorf("speed = %v without commands, want 0", got)
	}
	if r.rv.LastCommandAge() != des.MaxTime {
		t.Error("command age should be MaxTime before any command")
	}
}

func TestBrakeCommand(t *testing.T) {
	braking := func(now des.Time) Command {
		if now > 10*des.Second {
			return Command{Brake: true, BrakeDecel: 4}
		}
		return Command{TargetSpeed: 20}
	}
	r := newRig(t, 0, braking)
	r.op.Start()
	if err := r.k.RunUntil(30 * des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if got := r.rv.Vehicle().State.Speed; got != 0 {
		t.Errorf("speed = %v after brake command, want 0", got)
	}
}

// TestWatchdogSafeStopUnderDoS is the teleoperation headline: a DoS on
// the command link. Without a watchdog the vehicle blindly keeps the
// last commanded speed; with one it stops.
func TestWatchdogSafeStopUnderDoS(t *testing.T) {
	run := func(watchdog des.Time) (speedAtEnd float64, safeStops uint64) {
		r := newRig(t, watchdog, constantSpeedPolicy(20))
		r.op.Start()
		// Let the vehicle reach speed, then kill the command link by
		// dropping every frame to the remote vehicle.
		r.k.ScheduleAt(15*des.Second, func() {
			r.air.SetInterceptor(dropTo{"remote"})
		})
		if err := r.k.RunUntil(40 * des.Second); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
		return r.rv.Vehicle().State.Speed, r.rv.SafeStops()
	}
	speedNoWD, stopsNoWD := run(0)
	if speedNoWD < 19 {
		t.Errorf("without watchdog: speed = %v, want ~20 (blind continuation)", speedNoWD)
	}
	if stopsNoWD != 0 {
		t.Errorf("without watchdog: safeStops = %d", stopsNoWD)
	}
	speedWD, stopsWD := run(500 * des.Millisecond)
	if speedWD != 0 {
		t.Errorf("with watchdog: speed = %v, want 0 (safe stop)", speedWD)
	}
	if stopsWD == 0 {
		t.Error("with watchdog: no safe-stop steps recorded")
	}
}

func TestStaleCommandDoesNotRollBack(t *testing.T) {
	r := newRig(t, 0, constantSpeedPolicy(10))
	fresh := Command{Seq: 2, SentAt: 10 * des.Second, TargetSpeed: 30}
	stale := Command{Seq: 1, SentAt: 5 * des.Second, TargetSpeed: 1}
	freshFrame, staleFrame := frameWith(fresh), frameWith(stale)
	r.rv.handleRx(&freshFrame, nic.RxMeta{RxAt: 10 * des.Second})
	r.rv.handleRx(&staleFrame, nic.RxMeta{RxAt: 11 * des.Second})
	if r.rv.lastCmd.TargetSpeed != 30 {
		t.Errorf("stale command rolled state back: %+v", r.rv.lastCmd)
	}
}

// dropTo drops every frame destined for one receiver.
type dropTo struct{ dst string }

func (d dropTo) Intercept(_ des.Time, _, dst string, _ mac.Frame) nic.Verdict {
	return nic.Verdict{Drop: dst == d.dst}
}

func frameWith(c Command) mac.Frame {
	return mac.Frame{Src: "operator", Bits: CommandBits, AC: mac.ACVoice, Payload: c}
}
