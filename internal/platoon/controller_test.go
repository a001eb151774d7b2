package platoon

import (
	"math"
	"testing"
	"testing/quick"
)

func steady(pos, speed float64, length float64) KinState {
	return KinState{Pos: pos, Speed: speed, Length: length, Valid: true}
}

func TestCACCAlphasPlexeDefaults(t *testing.T) {
	c := DefaultCACC()
	a1, a2, a3, a4, a5 := c.Alphas()
	want := [5]float64{0.5, 0.5, -0.3, -0.1, -0.04}
	got := [5]float64{a1, a2, a3, a4, a5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("alpha%d = %v, want %v", i+1, got[i], want[i])
		}
	}
}

func TestCACCEquilibriumIsZero(t *testing.T) {
	// Perfect spacing, equal speeds, zero accelerations -> no command.
	c := DefaultCACC()
	self := Snapshot{Pos: 100, Speed: 25, Length: 4}
	pred := steady(109, 25, 4) // gap = 109-4-100 = 5 = Spacing
	leader := steady(118, 25, 4)
	if got := c.Update(0.01, self, leader, pred); math.Abs(got) > 1e-12 {
		t.Errorf("equilibrium command = %v, want 0", got)
	}
}

func TestCACCBrakesWhenTooClose(t *testing.T) {
	c := DefaultCACC()
	self := Snapshot{Pos: 103, Speed: 25, Length: 4}
	pred := steady(109, 25, 4) // gap 2 m < 5 m
	leader := steady(118, 25, 4)
	if got := c.Update(0.01, self, leader, pred); got >= 0 {
		t.Errorf("too-close command = %v, want negative", got)
	}
}

func TestCACCAcceleratesWhenTooFar(t *testing.T) {
	c := DefaultCACC()
	self := Snapshot{Pos: 90, Speed: 25, Length: 4}
	pred := steady(109, 25, 4) // gap 15 m > 5 m
	leader := steady(118, 25, 4)
	if got := c.Update(0.01, self, leader, pred); got <= 0 {
		t.Errorf("too-far command = %v, want positive", got)
	}
}

func TestCACCFeedforwardWeights(t *testing.T) {
	// At equilibrium spacing and matched speeds, the command is exactly
	// a1*a_pred + a2*a_lead.
	c := DefaultCACC()
	self := Snapshot{Pos: 100, Speed: 25, Length: 4}
	pred := steady(109, 25, 4)
	leader := steady(118, 25, 4)
	pred.Accel = 2
	leader.Accel = -1
	want := 0.5*2 + 0.5*(-1)
	if got := c.Update(0.01, self, leader, pred); math.Abs(got-want) > 1e-12 {
		t.Errorf("feedforward = %v, want %v", got, want)
	}
}

func TestCACCInvalidDataHolds(t *testing.T) {
	c := DefaultCACC()
	if got := c.Update(0.01, Snapshot{}, KinState{}, KinState{}); got != 0 {
		t.Errorf("command with no data = %v, want 0", got)
	}
}

// Property: the CACC command is monotonically decreasing in the spacing
// error (the closer we are, the harder we brake).
func TestCACCMonotoneInSpacingProperty(t *testing.T) {
	c := DefaultCACC()
	leader := steady(1000, 25, 4)
	f := func(gapA, gapB float64) bool {
		gapA = 1 + math.Mod(math.Abs(gapA), 50)
		gapB = 1 + math.Mod(math.Abs(gapB), 50)
		if gapA == gapB {
			return true
		}
		predPos := 500.0
		mk := func(gap float64) float64 {
			self := Snapshot{Pos: predPos - 4 - gap, Speed: 25, Length: 4}
			return c.Update(0.01, self, leader, steady(predPos, 25, 4))
		}
		a, b := mk(gapA), mk(gapB)
		if gapA < gapB {
			return a < b
		}
		return b < a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestACCDefaults(t *testing.T) {
	c := DefaultACC()
	if c.Name() != "ACC" {
		t.Errorf("Name = %q", c.Name())
	}
	// Equilibrium: gap = headway * speed -> zero command.
	speed := 25.0
	gap := c.Headway * speed
	predPos := 500.0
	self := Snapshot{Pos: predPos - 4 - gap, Speed: speed, Length: 4}
	if got := c.Update(0.01, self, KinState{}, steady(predPos, speed, 4)); math.Abs(got) > 1e-12 {
		t.Errorf("ACC equilibrium = %v, want 0", got)
	}
}

func TestACCBrakesWhenClosing(t *testing.T) {
	c := DefaultACC()
	predPos := 500.0
	self := Snapshot{Pos: predPos - 4 - 30, Speed: 30, Length: 4}
	pred := steady(predPos, 20, 4) // slower predecessor
	if got := c.Update(0.01, self, KinState{}, pred); got >= 0 {
		t.Errorf("closing-in command = %v, want negative", got)
	}
}

func TestACCInvalidDataHolds(t *testing.T) {
	c := DefaultACC()
	if got := c.Update(0.01, Snapshot{Speed: 20}, KinState{}, KinState{}); got != 0 {
		t.Errorf("command with no data = %v, want 0", got)
	}
}

func TestACCIgnoresLeader(t *testing.T) {
	c := DefaultACC()
	predPos := 500.0
	self := Snapshot{Pos: predPos - 4 - 30, Speed: 25, Length: 4}
	pred := steady(predPos, 25, 4)
	a := c.Update(0.01, self, KinState{}, pred)
	leader := steady(900, 10, 4)
	leader.Accel = -5
	b := c.Update(0.01, self, leader, pred)
	if a != b {
		t.Error("ACC used leader state")
	}
}

func TestPloegConvergesTowardPredAccel(t *testing.T) {
	c := DefaultPloeg()
	speed := 25.0
	gap := c.Standstill + c.Headway*speed
	predPos := 500.0
	self := Snapshot{Pos: predPos - 4 - gap, Speed: speed, Length: 4}
	pred := steady(predPos, speed, 4)
	pred.Accel = 1.0
	// Iterate the dynamic controller; it should approach pred.Accel.
	var u float64
	for i := 0; i < 500; i++ {
		u = c.Update(0.01, self, KinState{}, pred)
	}
	if math.Abs(u-1.0) > 0.05 {
		t.Errorf("Ploeg command after settling = %v, want ~1.0", u)
	}
}

func TestPloegResetClearsState(t *testing.T) {
	c := DefaultPloeg()
	pred := steady(500, 20, 4)
	pred.Accel = 2
	self := Snapshot{Pos: 480, Speed: 20, Length: 4}
	for i := 0; i < 100; i++ {
		c.Update(0.01, self, KinState{}, pred)
	}
	c.Reset()
	if got := c.Update(0, self, KinState{}, KinState{}); got != 0 {
		t.Errorf("post-reset command = %v, want 0", got)
	}
}

func TestPloegInvalidDataHoldsLastCommand(t *testing.T) {
	c := DefaultPloeg()
	if got := c.Update(0.01, Snapshot{}, KinState{}, KinState{}); got != 0 {
		t.Errorf("initial invalid-data command = %v, want 0", got)
	}
}

func TestControllerNames(t *testing.T) {
	for _, tt := range []struct {
		c    Controller
		want string
	}{
		{c: DefaultCACC(), want: "CACC"},
		{c: DefaultACC(), want: "ACC"},
		{c: DefaultPloeg(), want: "PLOEG"},
	} {
		if tt.c.Name() != tt.want {
			t.Errorf("Name = %q, want %q", tt.c.Name(), tt.want)
		}
		tt.c.Reset() // must not panic
	}
}

// TestCACCAlphasMemo: Update reuses the gains only while C1, Xi and
// OmegaN keep their bits. A controller whose gains change between steps
// must command exactly what a fresh controller with the new gains does.
func TestCACCAlphasMemo(t *testing.T) {
	self := Snapshot{Pos: 100, Speed: 24, Accel: 0.3, Length: 4}
	leader := KinState{Pos: 130, Speed: 25.5, Accel: -0.7, Length: 4, Valid: true}
	pred := KinState{Pos: 110, Speed: 24.8, Accel: 0.1, Length: 4, Valid: true}
	c := DefaultCACC()
	for _, g := range [][3]float64{{0.5, 1, 0.2}, {0.5, 1, 0.2}, {0.3, 1, 0.2}, {0.3, 1.4, 0.2}, {0.3, 1.4, 0.35}, {math.Copysign(0, -1), 1, 0.2}, {0, 1, 0.2}} {
		c.C1, c.Xi, c.OmegaN = g[0], g[1], g[2]
		fresh := &CACC{C1: g[0], Xi: g[1], OmegaN: g[2], Spacing: c.Spacing}
		if got, want := c.Update(0.01, self, leader, pred), fresh.Update(0.01, self, leader, pred); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("gains %v: memoised command %v, fresh %v", g, got, want)
		}
	}
}
