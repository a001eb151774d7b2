package mac

import (
	"testing"

	"comfase/internal/msg"
	"comfase/internal/sim/des"
	"comfase/internal/sim/rng"
	"comfase/internal/wave1609"
)

// allocHarness wires an EDCA entity to a no-op medium for the
// enqueue/dequeue allocation measurements.
func allocHarness(tb testing.TB) (*des.Kernel, *EDCA) {
	tb.Helper()
	k := des.NewKernel()
	// txDone is bound once, like the real radio's txDoneFn, so the fake
	// medium does not allocate a method value per transmission.
	var txDone des.Handler
	m, err := New(Config{
		Kernel:   k,
		RNG:      rng.New(1, "mac-alloc"),
		Schedule: wave1609.NewSchedule(wave1609.AccessContinuous),
		Airtime:  func(int) des.Time { return 80 * des.Microsecond },
		Medium:   transmitFunc(func(Frame) { k.ScheduleAfter(80*des.Microsecond, txDone) }),
	})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	txDone = m.TxDone
	return k, m
}

// beaconFrame builds a beacon-carrying frame the way the platoon app
// does: inline beacon, no boxed payload.
func beaconFrame(seq uint64) Frame {
	return Frame{
		Seq: seq, Src: "v1", Bits: 424, AC: ACVideo,
		Beacon:    msg.Beacon{Source: "v1", Seq: seq, Pos: 12.5, Speed: 25},
		HasBeacon: true,
	}
}

// TestEDCAEnqueueZeroAllocs pins the steady-state enqueue/transmit cycle
// at zero allocations per frame: the ring-buffer queues must never
// regrow once built.
func TestEDCAEnqueueZeroAllocs(t *testing.T) {
	k, m := allocHarness(t)
	var seq uint64
	cycle := func() {
		seq++
		if err := m.Enqueue(beaconFrame(seq)); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	for i := 0; i < 16; i++ { // warm-up: kernel slab and queue rings
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("enqueue/transmit allocs/op = %v, want 0", allocs)
	}
}

// TestEDCAEnqueueFullQueueZeroAllocs pins the drop path too: rejecting a
// frame on a full ring must not allocate either.
func TestEDCAEnqueueFullQueueZeroAllocs(t *testing.T) {
	_, m := allocHarness(t)
	// Fill the AC_VI ring without draining (no kernel run).
	var seq uint64
	for {
		seq++
		if err := m.Enqueue(beaconFrame(seq)); err != nil {
			break
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		seq++
		_ = m.Enqueue(beaconFrame(seq))
	}); allocs != 0 {
		t.Errorf("full-queue drop allocs/op = %v, want 0", allocs)
	}
}

// BenchmarkEDCAEnqueue measures one enqueue/contention/transmit cycle
// through the ring-buffer queues.
func BenchmarkEDCAEnqueue(b *testing.B) {
	k, m := allocHarness(b)
	var seq uint64
	for i := 0; i < 16; i++ {
		seq++
		if err := m.Enqueue(beaconFrame(seq)); err != nil {
			b.Fatalf("Enqueue: %v", err)
		}
		if err := k.Run(); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		if err := m.Enqueue(beaconFrame(seq)); err != nil {
			b.Fatalf("Enqueue: %v", err)
		}
		if err := k.Run(); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
}
