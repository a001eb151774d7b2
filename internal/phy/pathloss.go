package phy

import (
	"errors"
	"math"
)

// ErrBadDistance is returned by path-loss computations for non-positive
// distances (the models are singular at d = 0).
var ErrBadDistance = errors.New("phy: distance must be positive")

// PathLoss computes the attenuation between two antennas. Implementations
// are the wirelessModel choices of ComFASE Step-1.
type PathLoss interface {
	// LossDB returns the path loss in dB (positive = attenuation) for a
	// transmitter-receiver distance in metres at a carrier frequency in
	// Hz. Distances are clamped to a minimum of 1 m, the usual far-field
	// guard in Veins' analogue models.
	LossDB(distance, freqHz float64) float64
	// Name identifies the model in configs and logs.
	Name() string
}

// FreeSpace is the free-space path-loss model ("free space path loss
// model" in the paper, used for its platooning experiments because the
// line of sight between platoon members is unobstructed):
//
//	L = 20 log10(4 * pi * d * f / c) + 10*(alpha-2) log10(d)
//
// with Alpha = 2 reducing to the classic Friis form.
type FreeSpace struct {
	// Alpha is the path-loss exponent; 2.0 is true free space. Veins'
	// SimplePathlossModel exposes the same knob.
	Alpha float64
}

var _ PathLoss = FreeSpace{}

// LossDB implements PathLoss.
func (m FreeSpace) LossDB(distance, freqHz float64) float64 {
	d := math.Max(distance, 1)
	alpha := m.exponent()
	friis := float64(20 * math.Log10(4*math.Pi*d*freqHz/SpeedOfLight))
	if alpha == 2 && !math.IsInf(d, 1) {
		// The exponent term is 10*0*Log10(d) == +0 for every finite d >= 1,
		// and friis + 0 == friis, so skipping it is the identical
		// computation. At d = +Inf the term is 0*Inf = NaN and must stay.
		return friis
	}
	return friis + float64(10*(alpha-2)*math.Log10(d))
}

// Name implements PathLoss.
func (m FreeSpace) Name() string { return "freespace" }

// DistanceAt is the closed-form inverse of LossDB: the distance in metres
// at which the loss reaches lossDB at the carrier frequency, ignoring the
// 1 m clamp. Solving LossDB for d gives L = 20 log10(4 pi f / c) +
// 10*alpha log10(d). It is exact only up to rounding, so a caller that
// decides by it keeps a margin.
func (m FreeSpace) DistanceAt(lossDB, freqHz float64) float64 {
	return math.Pow(10, (lossDB-float64(20*math.Log10(4*math.Pi*freqHz/SpeedOfLight)))/(10*m.exponent()))
}

// exponent is Alpha, or 2 when Alpha is not positive.
func (m FreeSpace) exponent() float64 {
	if m.Alpha <= 0 {
		return 2
	}
	return m.Alpha
}

// TwoRayInterference is Veins' two-ray interference model (Sommer et al.),
// which captures the ground-reflection fading dips observed on flat
// highways. It needs the antenna heights above ground.
type TwoRayInterference struct {
	// HeightTx and HeightRx are antenna heights in metres (Veins default
	// for cars: 1.895 m).
	HeightTx float64
	HeightRx float64
	// EpsilonR is the relative permittivity of the road surface (Veins
	// default 1.02).
	EpsilonR float64
}

var _ PathLoss = TwoRayInterference{}

// LossDB implements PathLoss.
func (m TwoRayInterference) LossDB(distance, freqHz float64) float64 {
	d := math.Max(distance, 1)
	ht := m.HeightTx
	hr := m.HeightRx
	if ht <= 0 {
		ht = 1.895
	}
	if hr <= 0 {
		hr = 1.895
	}
	epsR := m.EpsilonR
	if epsR <= 0 {
		epsR = 1.02
	}
	lambda := SpeedOfLight / freqHz

	dLOS := math.Sqrt(float64(d*d) + float64((ht-hr)*(ht-hr)))
	dRef := math.Sqrt(float64(d*d) + float64((ht+hr)*(ht+hr)))
	sinTheta := (ht + hr) / dRef
	cosTheta := d / dRef

	// Reflection coefficient for vertical polarisation.
	gamma := (sinTheta - math.Sqrt(epsR-float64(cosTheta*cosTheta))) /
		(sinTheta + math.Sqrt(epsR-float64(cosTheta*cosTheta)))

	phi := 2 * math.Pi * (dRef - dLOS) / lambda
	// Interference of direct and reflected ray.
	re := 1 + float64(gamma*math.Cos(phi))
	im := gamma * math.Sin(phi)
	atten := math.Sqrt(float64(re*re) + float64(im*im))
	if atten <= 0 {
		atten = 1e-12
	}
	friis := float64(20 * math.Log10(4*math.Pi*dLOS/lambda))
	return friis - float64(20*math.Log10(atten))
}

// Name implements PathLoss.
func (m TwoRayInterference) Name() string { return "tworay" }
