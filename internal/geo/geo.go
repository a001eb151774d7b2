// Package geo provides the 2-D geometry primitives shared by the traffic
// simulator (vehicle positions along lanes) and the wireless channel
// models (inter-antenna distance, free-space path loss).
package geo

import "math"

// Vec is a 2-D vector / point in metres. X grows along the road's driving
// direction, Y across lanes.
type Vec struct {
	X float64
	Y float64
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{X: v.X + w.X, Y: v.Y + w.Y} }

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{X: v.X - w.X, Y: v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{X: v.X * s, Y: v.Y * s} }

// Dot returns the dot product of v and w.
func (v Vec) Dot(w Vec) float64 { return float64(v.X*w.X) + float64(v.Y*w.Y) }

// Len returns the Euclidean norm of v.
func (v Vec) Len() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the Euclidean distance between points v and w. Points
// level with each other (a platoon in one lane) skip the hypotenuse:
// Hypot(x, 0) is max*sqrt(1+(0/max)^2) = |x| exactly.
func (v Vec) Dist(w Vec) float64 {
	d := v.Sub(w)
	if d.Y == 0 {
		return math.Abs(d.X)
	}
	return d.Len()
}

// Clamp limits x to [lo, hi]. It is widely used for actuator and speed
// limits, hence it lives with the shared geometry helpers.
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// NearlyEqual reports whether a and b differ by at most eps.
func NearlyEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}
