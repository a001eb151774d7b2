package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecArithmetic(t *testing.T) {
	a := Vec{X: 1, Y: 2}
	b := Vec{X: 3, Y: -4}
	if got := a.Add(b); got != (Vec{X: 4, Y: -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec{X: -2, Y: 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec{X: 2, Y: 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
}

func TestVecLenDist(t *testing.T) {
	v := Vec{X: 3, Y: 4}
	if got := v.Len(); got != 5 {
		t.Errorf("Len = %v, want 5", got)
	}
	if got := (Vec{X: 1, Y: 1}).Dist(Vec{X: 4, Y: 5}); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyNaNInf(ax, ay, bx, by) {
			return true
		}
		a, b := Vec{X: ax, Y: ay}, Vec{X: bx, Y: by}
		return a.Dist(b) == b.Dist(a) && a.Dist(a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Constrain to a sane range to avoid float blow-ups.
		norm := func(x float64) float64 { return math.Mod(x, 1e6) }
		if anyNaNInf(ax, ay, bx, by, cx, cy) {
			return true
		}
		a := Vec{X: norm(ax), Y: norm(ay)}
		b := Vec{X: norm(bx), Y: norm(by)}
		c := Vec{X: norm(cx), Y: norm(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		name      string
		x, lo, hi float64
		want      float64
	}{
		{name: "inside", x: 5, lo: 0, hi: 10, want: 5},
		{name: "below", x: -3, lo: 0, hi: 10, want: 0},
		{name: "above", x: 15, lo: 0, hi: 10, want: 10},
		{name: "at low edge", x: 0, lo: 0, hi: 10, want: 0},
		{name: "at high edge", x: 10, lo: 0, hi: 10, want: 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Clamp(tt.x, tt.lo, tt.hi); got != tt.want {
				t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.x, tt.lo, tt.hi, got, tt.want)
			}
		})
	}
}

func TestNearlyEqual(t *testing.T) {
	if !NearlyEqual(1.0, 1.0+1e-12, 1e-9) {
		t.Error("NearlyEqual too strict")
	}
	if NearlyEqual(1.0, 1.1, 1e-9) {
		t.Error("NearlyEqual too lax")
	}
}

func anyNaNInf(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// TestDistLevelPointsExact pins Dist's shortcut for points level with
// each other to the hypotenuse it skips, bit for bit, over distances
// from sub-millimetre to beyond radio range, signed zeros and infinities.
func TestDistLevelPointsExact(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 1e-300, 0.001, 1, 4.2, 9, 10.000000000000002, 123.456, 1e3, 4e3, 1e300, math.Inf(1), math.Inf(-1)}
	for x := 0.37; x < 5000; x *= 1.37 {
		xs = append(xs, x, -x, x+0.1)
	}
	for _, y := range []float64{0, 3.2, -4.8} {
		for _, a := range xs {
			for _, b := range []float64{0, 12.5, -7} {
				v, w := Vec{X: a, Y: y}, Vec{X: b, Y: y}
				if got, want := v.Dist(w), math.Hypot(a-b, 0); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Dist(%v, %v) = %v, Hypot %v", v, w, got, want)
				}
			}
		}
	}
}
