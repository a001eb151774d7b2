package phy

import (
	"math"

	"comfase/internal/sim/rng"
)

// Fading draws a per-frame stochastic channel gain, applied on top of
// the deterministic path loss. Veins models highway V2V fast fading with
// a Nakagami-m distribution; the paper's experiments run without fading
// (free-space only), so fading defaults to off.
type Fading interface {
	// GainDB returns a random power gain in dB (negative = fade) for
	// one transmitter-receiver frame at the given distance.
	GainDB(distance float64) float64
	// Name identifies the model in configs and logs.
	Name() string
}

// NakagamiFading is the Nakagami-m fading model used by Veins for
// vehicular channels: the received power is Gamma-distributed with shape
// m and the mean given by path loss. m = 1 is Rayleigh fading (worst
// case NLOS); m = 3 approximates near-LOS highway conditions; m -> inf
// approaches no fading.
type NakagamiFading struct {
	// M is the shape for short distances (Veins default 3.0 below
	// DistThreshold, 1.5 beyond — LOS degrades with range).
	M float64
	// MFar is the shape beyond DistThreshold (default 1.5).
	MFar float64
	// DistThreshold switches M to MFar (default 80 m).
	DistThreshold float64
	// Src draws the samples (required).
	Src *rng.Source
}

var _ Fading = (*NakagamiFading)(nil)

// NewNakagamiFading returns Veins' default highway parameterisation.
func NewNakagamiFading(src *rng.Source) *NakagamiFading {
	return &NakagamiFading{M: 3, MFar: 1.5, DistThreshold: 80, Src: src}
}

// Name implements Fading.
func (f *NakagamiFading) Name() string { return "nakagami" }

// GainDB implements Fading: it draws a unit-mean Gamma(m, 1/m) power
// factor and converts it to dB.
func (f *NakagamiFading) GainDB(distance float64) float64 {
	m := f.M
	if f.DistThreshold > 0 && distance > f.DistThreshold && f.MFar > 0 {
		m = f.MFar
	}
	if m <= 0 {
		m = 1
	}
	g := f.gamma(m, 1/m)
	if g <= 0 {
		g = 1e-12
	}
	return 10 * math.Log10(g)
}

// gamma draws a Gamma(shape, scale) sample via Marsaglia-Tsang, with the
// standard shape<1 boost.
func (f *NakagamiFading) gamma(shape, scale float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a).
		u := f.Src.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		return f.gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := f.Src.Normal(0, 1)
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := f.Src.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		if u < 1-float64(0.0331*x*x*x*x) ||
			math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v * scale
		}
	}
}
