package traffic

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"comfase/internal/roadnet"
	"comfase/internal/sim/des"
	"comfase/internal/vehicle"
)

// countingManeuver counts the maneuver evaluations AccelAt makes.
type countingManeuver struct {
	inner Maneuver
	calls int
}

func (m *countingManeuver) TargetSpeed(t float64) float64 {
	m.calls++
	return m.inner.TargetSpeed(t)
}

func (m *countingManeuver) FeedforwardAccel(t float64) float64 {
	m.calls++
	return m.inner.FeedforwardAccel(t)
}

// referenceAccel is SpeedTracker.Accel as one expression, evaluated with
// no memo: feedforward, its central-difference lead term, then the
// proportional speed feedback.
func referenceAccel(m Maneuver, gain, lag, t, speed float64) float64 {
	ff := m.FeedforwardAccel(t)
	if lag > 0 {
		const h = 1e-3
		ff += float64(lag * ((m.FeedforwardAccel(t+h) - m.FeedforwardAccel(t-h)) / (2 * h)))
	}
	return ff + float64(gain*(m.TargetSpeed(t)-speed))
}

// TestAccelAtMatchesAccel pins the leader profile memo bit for bit: at
// every step from 0 past the horizon, on and off the step grid, on first
// use and on memo hits, AccelAt equals Accel(now.Seconds(), s) and the
// reference expression, and SetStepGrid forgets the previous maneuver.
func TestAccelAtMatchesAccel(t *testing.T) {
	const (
		step    = 10 * des.Millisecond
		horizon = 60 * des.Second
	)
	maneuvers := map[string]Maneuver{
		// The paper's maneuver (scenario.PaperManeuver).
		"sinusoidal": Sinusoidal{Base: 27.78, Amplitude: 1.2175, Frequency: 0.2, Phase: 1.05},
		"braking":    Braking{CruiseSpeed: 27.78, FinalSpeed: 0, BrakeAt: 30, Decel: 4},
		"constant":   ConstantSpeed{Speed: 27.78},
	}
	for name, m := range maneuvers {
		for _, lag := range []float64{0.5, 0} {
			t.Run(fmt.Sprintf("%s/lag=%v", name, lag), func(t *testing.T) {
				tr := &SpeedTracker{Maneuver: m, Gain: 2, LagComp: lag}
				tr.SetStepGrid(step, horizon)
				check := func(now des.Time, speed float64) {
					t.Helper()
					s := vehicle.State{Speed: speed}
					got := tr.AccelAt(now, s)
					want := tr.Accel(now.Seconds(), s)
					ref := referenceAccel(m, 2, lag, now.Seconds(), speed)
					if math.Float64bits(got) != math.Float64bits(want) ||
						math.Float64bits(got) != math.Float64bits(ref) {
						t.Fatalf("AccelAt(%v, %v) = %v, Accel = %v, reference = %v", now, speed, got, want, ref)
					}
				}
				last := horizon/step + 100 // 1 s past the horizon
				for pass := 0; pass < 2; pass++ {
					for k := des.Time(0); k <= last; k++ {
						now := k * step
						check(now, 26+float64(k%37)*0.1)
						check(now, 28.5) // a memo hit at a different speed
						if k%97 == 0 {
							check(now+1, 27)      // 1 ns off the grid
							check(now+step/2, 27) // mid-step
							check(now+3*des.Millisecond, 27)
						}
					}
				}
				// Refilling the grid for another maneuver forgets every step.
				other := ConstantSpeed{Speed: 20}
				tr.Maneuver = other
				tr.SetStepGrid(step, horizon)
				for k := des.Time(0); k <= horizon/step; k += 7 {
					s := vehicle.State{Speed: 21}
					if got, want := tr.AccelAt(k*step, s), referenceAccel(other, 2, lag, (k*step).Seconds(), 21); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("after SetStepGrid: AccelAt(%v) = %v, want %v", k*step, got, want)
					}
				}
			})
		}
	}
}

// TestAccelAtMemoHits pins that the memo serves repeat visits: after one
// pass over the grid, a replayed pass evaluates the maneuver only off
// the grid and beyond the horizon.
func TestAccelAtMemoHits(t *testing.T) {
	cm := &countingManeuver{inner: Sinusoidal{Base: 27.78, Amplitude: 1.2175, Frequency: 0.2, Phase: 1.05}}
	tr := &SpeedTracker{Maneuver: cm, Gain: 2, LagComp: 0.5}
	tr.SetStepGrid(10*des.Millisecond, des.Second)
	for k := des.Time(0); k <= 100; k++ {
		tr.AccelAt(k*10*des.Millisecond, vehicle.State{Speed: 27})
	}
	if cm.calls != 4*101 {
		t.Fatalf("first pass made %d maneuver calls, want %d", cm.calls, 4*101)
	}
	cm.calls = 0
	for k := des.Time(0); k <= 100; k++ {
		tr.AccelAt(k*10*des.Millisecond, vehicle.State{Speed: 28})
	}
	if cm.calls != 0 {
		t.Errorf("replayed pass made %d maneuver calls, want 0", cm.calls)
	}
	tr.AccelAt(101*10*des.Millisecond, vehicle.State{Speed: 28}) // past the horizon
	tr.AccelAt(5*des.Millisecond, vehicle.State{Speed: 28})      // off the grid
	if cm.calls != 8 {
		t.Errorf("off-grid and past-horizon calls = %d, want 8 (evaluated directly)", cm.calls)
	}
}

// TestHaltedWreckStepZeroAllocs pins the traffic step at zero
// allocations while a halted wreck stays overlapped, the state a
// collided run keeps until its horizon.
func TestHaltedWreckStepZeroAllocs(t *testing.T) {
	k := des.NewKernel()
	net, _ := roadnet.NewNetwork(roadnet.PaperHighway())
	sim, err := NewSimulator(Config{Kernel: k, Network: net, Invariants: true})
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	front, _ := sim.AddVehicle(idealCar("front"), vehicle.State{Pos: 50, Speed: 0})
	rear, _ := sim.AddVehicle(idealCar("rear"), vehicle.State{Pos: 30, Speed: 30})
	_, _ = sim.AddVehicle(idealCar("other"), vehicle.State{Pos: 10, Speed: 0, Lane: 1})
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := k.RunUntil(2 * des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if sim.CollisionCount() != 1 || !rear.Halted() || rear.State.Pos < front.State.Rear(front.Spec.Length) {
		t.Fatalf("want one halted, overlapped pair; collisions %v", sim.Collisions())
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := k.RunUntil(k.Now() + sim.StepLength()); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("step with a halted wreck allocated %.1f per step, want 0", allocs)
	}
	if sim.CollisionCount() != 1 || sim.Fault() != nil {
		t.Errorf("collisions %v, fault %v after the pinned steps", sim.Collisions(), sim.Fault())
	}
}

// FuzzLaneOrder drives the reused (lane, position) order through exact
// position ties, lane changes, halted wrecks, Reset and AddVehicle, and
// after every step compares it with a stable sort of a copy of the
// vehicles in insertion order: the order detectCollisions must see.
func FuzzLaneOrder(f *testing.F) {
	f.Add([]byte{3, 10, 20, 30, 0, 0, 0})
	f.Add([]byte{4, 8, 8, 8, 8, 0, 1, 0x12, 0, 0x23, 0})
	f.Add([]byte{5, 40, 30, 20, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0x0a, 0, 0})
	f.Add([]byte{2, 1, 2, 0x13, 0x24, 0, 0x05, 0, 0x06, 0x07, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		k := des.NewKernel()
		net, _ := roadnet.NewNetwork(roadnet.PaperHighway())
		cfg := Config{Kernel: k, Network: net}
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// pos maps a byte onto a coarse 0.5 m grid, so exact ties and
		// bumper overlaps (vehicles are 4 m long) are common.
		pos := func(b byte) float64 { return 100 + float64(b%64)*0.5 }
		next := 0
		add := func(b byte) {
			st := vehicle.State{Pos: pos(b), Speed: float64(b>>6) * 5, Lane: int(b>>7) & 1}
			if _, err := sim.AddVehicle(idealCar(fmt.Sprintf("v%d", next)), st); err != nil {
				t.Fatal(err)
			}
			next++
		}
		n := 2 + int(ops[0]%5)
		for i := 0; i < n && i+1 < len(ops); i++ {
			add(ops[i+1])
		}
		check := func() {
			t.Helper()
			if len(sim.vehicles) < 2 {
				return
			}
			want := slices.Clone(sim.vehicles)
			slices.SortStableFunc(want, func(a, b *vehicle.Vehicle) int {
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
			})
			if !slices.Equal(sim.laneOrder, want) {
				t.Fatalf("lane order %v, want %v", ids(sim.laneOrder), ids(want))
			}
		}
		for _, op := range ops[min(n+1, len(ops)):] {
			arg := op >> 3
			switch op & 7 {
			case 0, 1, 2: // step: integrate, detect collisions
				sim.step()
				check()
			case 3: // teleport a vehicle, often onto another's position
				if len(sim.vehicles) > 0 {
					sim.vehicles[int(arg)%len(sim.vehicles)].State.Pos = pos(arg * 7)
				}
			case 4: // lane change
				if len(sim.vehicles) > 0 {
					v := sim.vehicles[int(arg)%len(sim.vehicles)]
					v.State.Lane = 1 - v.State.Lane
				}
			case 5: // halt a vehicle in place
				if len(sim.vehicles) > 0 {
					sim.vehicles[int(arg)%len(sim.vehicles)].Halt()
				}
			case 6: // add a vehicle
				if len(sim.vehicles) < 12 {
					add(arg * 5)
				}
			case 7: // reset and repopulate
				if err := sim.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2+int(arg%3); i++ {
					add(arg + byte(i)*9)
				}
			}
		}
	})
}

func ids(vs []*vehicle.Vehicle) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("%s@%d:%v", v.Spec.ID, v.State.Lane, v.State.Pos)
	}
	return out
}
