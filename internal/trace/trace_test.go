package trace

import (
	"strings"
	"testing"

	"comfase/internal/sim/des"
)

func sample(pos, speed, accel float64) VehicleSample {
	return VehicleSample{Pos: pos, Speed: speed, Accel: accel}
}

func TestFullLogRecordsAndAccessors(t *testing.T) {
	l := NewFullLog([]string{"vehicle.1", "vehicle.2"})
	l.OnSample(10*des.Millisecond, []VehicleSample{sample(100, 25, 0.5), sample(91, 25, -0.2)})
	l.OnSample(20*des.Millisecond, []VehicleSample{sample(100.25, 25.1, 0.4), sample(91.25, 25, -1.9)})

	if l.Len() != 2 || l.NumVehicles() != 2 {
		t.Fatalf("Len=%d NumVehicles=%d", l.Len(), l.NumVehicles())
	}
	if ids := l.IDs(); ids[0] != "vehicle.1" || ids[1] != "vehicle.2" {
		t.Errorf("IDs = %v", ids)
	}
	if l.Time(1) != 20*des.Millisecond {
		t.Errorf("Time(1) = %v", l.Time(1))
	}
	if got := l.At(1, 1); got.Accel != -1.9 {
		t.Errorf("At(1,1) = %+v", got)
	}
}

func TestFullLogIDsCopied(t *testing.T) {
	ids := []string{"a"}
	l := NewFullLog(ids)
	ids[0] = "mutated"
	if l.IDs()[0] != "a" {
		t.Error("IDs not copied at construction")
	}
	got := l.IDs()
	got[0] = "mutated"
	if l.IDs()[0] != "a" {
		t.Error("IDs accessor exposes internals")
	}
}

func TestFullLogSamplesCopied(t *testing.T) {
	l := NewFullLog([]string{"a"})
	row := []VehicleSample{sample(1, 2, 3)}
	l.OnSample(0, row)
	row[0].Pos = 99
	if l.At(0, 0).Pos != 1 {
		t.Error("OnSample did not copy the row")
	}
}

func TestMaxDeceleration(t *testing.T) {
	l := NewFullLog([]string{"a", "b"})
	l.OnSample(0, []VehicleSample{sample(0, 0, -1.2), sample(0, 0, 2.5)})
	l.OnSample(1, []VehicleSample{sample(0, 0, 0.3), sample(0, 0, -3.7)})
	if got := l.MaxDeceleration(); got != 3.7 {
		t.Errorf("MaxDeceleration = %v, want 3.7", got)
	}
	if got := l.MaxDecelerationOf(0); got != 1.2 {
		t.Errorf("MaxDecelerationOf(0) = %v, want 1.2", got)
	}
	if got := l.MaxDecelerationOf(1); got != 3.7 {
		t.Errorf("MaxDecelerationOf(1) = %v, want 3.7", got)
	}
}

func TestMaxDecelerationAllAccelerating(t *testing.T) {
	l := NewFullLog([]string{"a"})
	l.OnSample(0, []VehicleSample{sample(0, 0, 1)})
	if got := l.MaxDeceleration(); got != 0 {
		t.Errorf("MaxDeceleration = %v, want 0 when never braking", got)
	}
}

func TestMaxSpeedDeviation(t *testing.T) {
	ref := NewFullLog([]string{"a"})
	run := NewFullLog([]string{"a"})
	for i := 0; i < 10; i++ {
		tm := des.Time(i) * des.Millisecond
		ref.OnSample(tm, []VehicleSample{sample(0, 25, 0)})
		dev := 0.0
		if i == 7 {
			dev = -2.5
		}
		run.OnSample(tm, []VehicleSample{sample(0, 25+dev, 0)})
	}
	got, err := run.MaxSpeedDeviation(ref)
	if err != nil {
		t.Fatalf("MaxSpeedDeviation: %v", err)
	}
	if got != 2.5 {
		t.Errorf("deviation = %v, want 2.5", got)
	}
}

func TestMaxSpeedDeviationErrors(t *testing.T) {
	empty := NewFullLog([]string{"a"})
	if _, err := empty.MaxSpeedDeviation(empty); err == nil {
		t.Error("empty logs accepted")
	}
	a := NewFullLog([]string{"a"})
	a.OnSample(0, []VehicleSample{sample(0, 0, 0)})
	b2 := NewFullLog([]string{"a", "b"})
	b2.OnSample(0, []VehicleSample{sample(0, 0, 0), sample(0, 0, 0)})
	if _, err := a.MaxSpeedDeviation(b2); err == nil {
		t.Error("vehicle count mismatch accepted")
	}
	c := NewFullLog([]string{"a"})
	c.OnSample(5, []VehicleSample{sample(0, 0, 0)})
	if _, err := a.MaxSpeedDeviation(c); err == nil {
		t.Error("time mismatch accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	l := NewFullLog([]string{"vehicle.1"})
	l.OnSample(100*des.Millisecond, []VehicleSample{sample(12.5, 25.1, -0.75)})
	var sb strings.Builder
	if err := l.WriteCSV(&sb); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got := sb.String()
	if !strings.HasPrefix(got, "time_s,vehicle,pos_m,speed_mps,accel_mps2\n") {
		t.Errorf("missing header: %q", got)
	}
	if !strings.Contains(got, "0.100,vehicle.1,12.500,25.1000,-0.7500") {
		t.Errorf("missing row: %q", got)
	}
}

func TestSummaryTracksExtrema(t *testing.T) {
	s := NewSummary(2, nil)
	s.OnSample(0, []VehicleSample{sample(0, 10, -2), sample(0, 10, 1)})
	s.OnSample(1, []VehicleSample{sample(0, 10, -0.5), sample(0, 10, -4)})
	if s.MaxDecel[0] != 2 || s.MaxDecel[1] != 4 {
		t.Errorf("MaxDecel = %v", s.MaxDecel)
	}
	if s.MaxDecelOverall() != 4 {
		t.Errorf("MaxDecelOverall = %v", s.MaxDecelOverall())
	}
	if s.Samples != 2 {
		t.Errorf("Samples = %d", s.Samples)
	}
	if s.MaxSpeedDev != 0 {
		t.Errorf("MaxSpeedDev without reference = %v", s.MaxSpeedDev)
	}
}

func TestSummaryAgainstReference(t *testing.T) {
	ref := NewFullLog([]string{"a"})
	for i := 0; i < 5; i++ {
		ref.OnSample(des.Time(i), []VehicleSample{sample(0, 20, 0)})
	}
	s := NewSummary(1, ref)
	for i := 0; i < 5; i++ {
		dev := 0.0
		if i == 3 {
			dev = 1.75
		}
		s.OnSample(des.Time(i), []VehicleSample{sample(0, 20+dev, 0)})
	}
	if s.MaxSpeedDev != 1.75 {
		t.Errorf("MaxSpeedDev = %v, want 1.75", s.MaxSpeedDev)
	}
	if s.Misaligned {
		t.Error("aligned run flagged misaligned")
	}
}

func TestSummaryMisalignment(t *testing.T) {
	ref := NewFullLog([]string{"a"})
	ref.OnSample(0, []VehicleSample{sample(0, 20, 0)})
	s := NewSummary(1, ref)
	s.OnSample(des.Time(99), []VehicleSample{sample(0, 20, 0)})
	if !s.Misaligned {
		t.Error("time-shifted run not flagged")
	}
}

func TestSummaryLongerThanReference(t *testing.T) {
	ref := NewFullLog([]string{"a"})
	ref.OnSample(0, []VehicleSample{sample(0, 20, 0)})
	s := NewSummary(1, ref)
	s.OnSample(0, []VehicleSample{sample(0, 20, 0)})
	s.OnSample(1, []VehicleSample{sample(0, 25, -6)}) // beyond reference end
	if s.Misaligned {
		t.Error("extra samples flagged as misaligned")
	}
	if s.MaxDecelOverall() != 6 {
		t.Errorf("extrema not tracked past reference end: %v", s.MaxDecelOverall())
	}
}

// TestFullLogCapRecordsWithoutAllocating: a log sized for its run records
// every sample into the arena, and each row is capped, so an append to
// one reallocates instead of writing into the next row.
func TestFullLogCapRecordsWithoutAllocating(t *testing.T) {
	const hint = 200
	l := NewFullLogCap([]string{"a", "b", "c"}, hint)
	row := []VehicleSample{sample(1, 2, 3), sample(4, 5, 6), sample(7, 8, 9)}
	var now des.Time
	// AllocsPerRun runs the function once more than asked, to warm up.
	allocs := testing.AllocsPerRun(hint-1, func() {
		now += des.Millisecond
		l.OnSample(now, row)
	})
	if allocs != 0 {
		t.Errorf("%v allocations per sample, want 0", allocs)
	}
	if l.Len() != hint {
		t.Fatalf("Len = %d, want %d", l.Len(), hint)
	}
	first := l.samples[0]
	_ = append(first, sample(-1, -1, -1))
	if got := l.At(1, 0); got != row[0] {
		t.Errorf("append to row 0 overwrote row 1: %+v", got)
	}
}

func TestFullLogIndex(t *testing.T) {
	l := NewFullLog([]string{"a"})
	for i := 1; i <= 5; i++ {
		l.OnSample(des.Time(i)*10*des.Millisecond, []VehicleSample{sample(float64(i), 0, 0)})
	}
	if i, ok := l.Index(30 * des.Millisecond); !ok || i != 2 {
		t.Errorf("Index(30ms) = %d, %v; want 2, true", i, ok)
	}
	for _, at := range []des.Time{0, 25 * des.Millisecond, 60 * des.Millisecond} {
		if _, ok := l.Index(at); ok {
			t.Errorf("Index(%v) found a sample the log does not hold", at)
		}
	}
}
