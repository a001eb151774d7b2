// Package trace records per-vehicle time series from simulation runs —
// the ComFASE logging layer that captures "vehicle speed, acceleration/
// deceleration and position" (§II-C) for golden-run comparison, result
// classification and figure generation.
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"

	"comfase/internal/sim/des"
)

// VehicleSample is one vehicle's state at one sample instant.
type VehicleSample struct {
	// Pos is the front-bumper lane position (m).
	Pos float64
	// Speed in m/s.
	Speed float64
	// Accel in m/s^2 (negative = deceleration).
	Accel float64
}

// Recorder consumes per-step samples. The scenario wiring invokes it once
// per traffic step with one sample per vehicle, in platoon order.
type Recorder interface {
	// OnSample delivers the states of all vehicles at time t.
	OnSample(t des.Time, states []VehicleSample)
}

// FullLog stores the complete time series of a run (used for the golden
// run, CSV export and figure generation).
type FullLog struct {
	ids     []string
	times   []des.Time
	samples [][]VehicleSample // samples[i] = all vehicles at times[i]
	// buf is the flat sample arena rows are carved from when the expected
	// run length is known up front (NewFullLogCap). Carving never extends
	// buf beyond its capacity — a reallocation would strand the rows
	// already handed out on the old array — so overflow rows fall back to
	// individual allocations. Each row is capped at its own length, so an
	// append to a returned row reallocates instead of overwriting the
	// next one.
	buf []VehicleSample
}

var _ Recorder = (*FullLog)(nil)

// NewFullLog creates a log for the given vehicle IDs (platoon order).
func NewFullLog(ids []string) *FullLog {
	cp := make([]string, len(ids))
	copy(cp, ids)
	return &FullLog{ids: cp}
}

// NewFullLogCap creates a log preallocated for about sampleHint samples.
// A run of the expected length records without any per-sample allocation;
// longer runs degrade gracefully to NewFullLog's per-row behaviour.
func NewFullLogCap(ids []string, sampleHint int) *FullLog {
	l := NewFullLog(ids)
	if sampleHint > 0 && len(ids) > 0 {
		l.times = make([]des.Time, 0, sampleHint)
		l.samples = make([][]VehicleSample, 0, sampleHint)
		l.buf = make([]VehicleSample, 0, sampleHint*len(ids))
	}
	return l
}

// OnSample implements Recorder.
func (l *FullLog) OnSample(t des.Time, states []VehicleSample) {
	var row []VehicleSample
	if n, m := len(l.buf), len(l.buf)+len(states); m <= cap(l.buf) {
		l.buf = l.buf[:m]
		row = l.buf[n:m:m]
		copy(row, states)
	} else {
		row = make([]VehicleSample, len(states))
		copy(row, states)
	}
	l.times = append(l.times, t)
	l.samples = append(l.samples, row)
}

// Len reports the number of samples.
func (l *FullLog) Len() int { return len(l.times) }

// IDs returns the vehicle IDs in column order.
func (l *FullLog) IDs() []string {
	cp := make([]string, len(l.ids))
	copy(cp, l.ids)
	return cp
}

// Time returns the time stamp of sample i.
func (l *FullLog) Time(i int) des.Time { return l.times[i] }

// At returns the state of vehicle v at sample i.
func (l *FullLog) At(i, v int) VehicleSample { return l.samples[i][v] }

// Index returns the sample recorded at time t; ok is false when the log
// holds none. Samples are recorded in time order, so it is a binary
// search.
func (l *FullLog) Index(t des.Time) (i int, ok bool) {
	return slices.BinarySearch(l.times, t)
}

// NumVehicles reports the number of recorded vehicles.
func (l *FullLog) NumVehicles() int { return len(l.ids) }

// MaxDeceleration returns the strongest deceleration magnitude (m/s^2,
// positive) observed across all vehicles and samples. This is the
// classification parameter of §IV-B.
func (l *FullLog) MaxDeceleration() float64 {
	var maxDecel float64
	for _, row := range l.samples {
		for _, s := range row {
			if d := -s.Accel; d > maxDecel {
				maxDecel = d
			}
		}
	}
	return maxDecel
}

// MaxDecelerationOf returns the strongest deceleration of one vehicle.
func (l *FullLog) MaxDecelerationOf(v int) float64 {
	var maxDecel float64
	for _, row := range l.samples {
		if d := -row[v].Accel; d > maxDecel {
			maxDecel = d
		}
	}
	return maxDecel
}

// MaxSpeedDeviation returns the largest per-sample speed difference (any
// vehicle) between this log and an identically shaped reference log. It
// returns an error if the logs are not sample-aligned.
func (l *FullLog) MaxSpeedDeviation(ref *FullLog) (float64, error) {
	n := l.Len()
	if ref.Len() < n {
		n = ref.Len()
	}
	if n == 0 {
		return 0, errors.New("trace: empty logs")
	}
	if l.NumVehicles() != ref.NumVehicles() {
		return 0, fmt.Errorf("trace: vehicle count mismatch %d vs %d",
			l.NumVehicles(), ref.NumVehicles())
	}
	var maxDev float64
	for i := 0; i < n; i++ {
		if l.times[i] != ref.times[i] {
			return 0, fmt.Errorf("trace: sample %d time mismatch %v vs %v",
				i, l.times[i], ref.times[i])
		}
		for v := range l.samples[i] {
			d := l.samples[i][v].Speed - ref.samples[i][v].Speed
			if d < 0 {
				d = -d
			}
			if d > maxDev {
				maxDev = d
			}
		}
	}
	return maxDev, nil
}

// WriteCSV exports the log in tidy CSV form:
// time_s,vehicle,pos_m,speed_mps,accel_mps2.
func (l *FullLog) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "vehicle", "pos_m", "speed_mps", "accel_mps2"}); err != nil {
		return err
	}
	for i, t := range l.times {
		ts := strconv.FormatFloat(t.Seconds(), 'f', 3, 64)
		for v, s := range l.samples[i] {
			rec := []string{
				ts,
				l.ids[v],
				strconv.FormatFloat(s.Pos, 'f', 3, 64),
				strconv.FormatFloat(s.Speed, 'f', 4, 64),
				strconv.FormatFloat(s.Accel, 'f', 4, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Summary accumulates run extrema without storing the series — the
// memory-frugal recorder used for the thousands of attack runs in a
// campaign. It optionally tracks the deviation from a reference log on
// the fly.
type Summary struct {
	ref *FullLog
	idx int

	// stabilityTol, when positive, enables convergence tracking against
	// the reference: lastUnstable remembers the most recent sample whose
	// deviation exceeded the tolerance (see TrackStability).
	stabilityTol float64
	lastUnstable des.Time

	// MaxDecel is the strongest deceleration (positive magnitude) per
	// vehicle.
	MaxDecel []float64
	// MaxSpeedDev is the largest speed deviation from the reference
	// (zero if no reference).
	MaxSpeedDev float64
	// Samples counts the recorded steps.
	Samples int
	// Misaligned latches true if the reference had different sampling.
	Misaligned bool
}

var _ Recorder = (*Summary)(nil)

// NewSummary creates a summary for n vehicles; ref may be nil.
func NewSummary(n int, ref *FullLog) *Summary {
	return &Summary{ref: ref, MaxDecel: make([]float64, n)}
}

// Reset reinitialises the summary for a new run of n vehicles, reusing
// the per-vehicle extrema slice. Campaign workers keep one Summary per
// workspace and Reset it between experiments; callers that hand results
// out must copy MaxDecel first (see CopyMaxDecel), since the backing
// array is recycled.
func (s *Summary) Reset(n int, ref *FullLog) {
	if cap(s.MaxDecel) < n {
		s.MaxDecel = make([]float64, n)
	} else {
		s.MaxDecel = s.MaxDecel[:n]
		for i := range s.MaxDecel {
			s.MaxDecel[i] = 0
		}
	}
	s.ref = ref
	s.idx = 0
	s.MaxSpeedDev = 0
	s.Samples = 0
	s.Misaligned = false
	s.stabilityTol = 0
	s.lastUnstable = 0
}

// TrackStability enables convergence tracking against the reference log:
// every sample whose maximum speed deviation exceeds tol (m/s) updates
// LastUnstable. Call it after Reset; Reset disables tracking again.
// Samples that cannot be compared against the reference — no reference,
// reference exhausted, misaligned — conservatively count as unstable, so
// LastUnstable never under-reports.
func (s *Summary) TrackStability(tol float64) { s.stabilityTol = tol }

// LastUnstable reports the time of the most recent sample that deviated
// from the reference by more than the TrackStability tolerance (zero if
// every tracked sample stayed within it).
func (s *Summary) LastUnstable() des.Time { return s.lastUnstable }

// CopyMaxDecel returns a fresh copy of the per-vehicle deceleration
// extrema, safe to retain after the summary is Reset for the next run.
func (s *Summary) CopyMaxDecel() []float64 {
	out := make([]float64, len(s.MaxDecel))
	copy(out, s.MaxDecel)
	return out
}

// OnSample implements Recorder.
func (s *Summary) OnSample(t des.Time, states []VehicleSample) {
	for v, st := range states {
		if v < len(s.MaxDecel) {
			if d := -st.Accel; d > s.MaxDecel[v] {
				s.MaxDecel[v] = d
			}
		}
	}
	if s.ref != nil && s.idx < s.ref.Len() {
		if s.ref.Time(s.idx) != t || s.ref.NumVehicles() != len(states) {
			s.Misaligned = true
			if s.stabilityTol > 0 {
				s.lastUnstable = t
			}
		} else {
			var sampleDev float64
			for v, st := range states {
				d := st.Speed - s.ref.At(s.idx, v).Speed
				if d < 0 {
					d = -d
				}
				if d > sampleDev {
					sampleDev = d
				}
			}
			if sampleDev > s.MaxSpeedDev {
				s.MaxSpeedDev = sampleDev
			}
			if s.stabilityTol > 0 && sampleDev > s.stabilityTol {
				s.lastUnstable = t
			}
		}
	} else if s.stabilityTol > 0 {
		s.lastUnstable = t
	}
	s.idx++
	s.Samples++
}

// MaxDecelOverall returns the strongest deceleration across all vehicles.
func (s *Summary) MaxDecelOverall() float64 {
	var m float64
	for _, d := range s.MaxDecel {
		if d > m {
			m = d
		}
	}
	return m
}
