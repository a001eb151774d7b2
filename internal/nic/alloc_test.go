package nic

import (
	"strconv"
	"testing"

	"comfase/internal/geo"
	"comfase/internal/mac"
	"comfase/internal/msg"
	"comfase/internal/phy"
	"comfase/internal/sim/des"
	"comfase/internal/wave1609"
)

// beaconNet builds an n-radio medium for the delivery-path measurements:
// a sender plus n-1 receivers spaced 10 m apart, all in range. n = 4
// mirrors the paper platoon, n = 16 the platoon-matrix workload.
func beaconNet(tb testing.TB, n int) (*des.Kernel, *Air, *Radio) {
	tb.Helper()
	k := des.NewKernel()
	air, err := NewAir(Config{
		Kernel:   k,
		Channel:  phy.DefaultChannelConfig(),
		Schedule: wave1609.NewSchedule(wave1609.AccessContinuous),
		Seed:     1,
	})
	if err != nil {
		tb.Fatalf("NewAir: %v", err)
	}
	handler := func(*mac.Frame, RxMeta) {}
	var src *Radio
	for i := 0; i < n; i++ {
		x := float64(10 * i)
		r, err := air.AddRadio(scratchID(i), func() geo.Vec { return geo.Vec{X: x} }, handler)
		if err != nil {
			tb.Fatalf("AddRadio: %v", err)
		}
		if i == 0 {
			src = r
		}
	}
	return k, air, src
}

func scratchID(i int) string {
	return "v" + strconv.Itoa(i)
}

// deliverOneBeacon enqueues one beacon and drains the kernel: MAC
// contention, transmit fan-out to every receiver, begin/end receptions and
// decoded deliveries all run inside.
func deliverOneBeacon(tb testing.TB, k *des.Kernel, src *Radio, seq uint64) {
	b := msg.Beacon{
		Source: src.ID(), Seq: seq, SentAt: k.Now(),
		PlatoonID: "platoon.0", Pos: 12.5, Speed: 25, Accel: 0.1, Length: 4,
	}
	if err := src.SendBeacon(b, 200, mac.ACVideo, seq); err != nil {
		tb.Fatalf("SendBeacon: %v", err)
	}
	if err := k.Run(); err != nil {
		tb.Fatalf("Run: %v", err)
	}
}

// TestBeaconDeliveryZeroAllocs pins the steady-state beacon pipeline —
// SendBeacon through MAC contention, Air fan-out and decoded delivery —
// at zero allocations per beacon, mirroring the kernel's 0 allocs/event
// pin. The first deliveries warm the reception freelist; after that the
// typed beacon path must never touch the allocator. It holds for the
// paper platoon (4 radios) and the platoon-matrix size (16).
func TestBeaconDeliveryZeroAllocs(t *testing.T) {
	for _, n := range []int{4, 16} {
		k, _, src := beaconNet(t, n)
		var seq uint64
		for i := 0; i < 16; i++ { // warm-up: populate reception pool
			seq++
			deliverOneBeacon(t, k, src, seq)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			seq++
			deliverOneBeacon(t, k, src, seq)
		})
		if allocs != 0 {
			t.Errorf("%d radios: beacon delivery allocs/op = %v, want 0", n, allocs)
		}
	}
}

// TestBeaconDeliveryZeroAllocsWithInterceptor re-pins the path with an
// attack model installed: interception passes the frame by value, so the
// verdict round-trip must not force the frame onto the heap.
func TestBeaconDeliveryZeroAllocsWithInterceptor(t *testing.T) {
	k, air, src := beaconNet(t, 4)
	air.SetInterceptor(delayAll{delay: des.Millisecond})
	var seq uint64
	for i := 0; i < 16; i++ {
		seq++
		deliverOneBeacon(t, k, src, seq)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		deliverOneBeacon(t, k, src, seq)
	})
	if allocs != 0 {
		t.Errorf("intercepted beacon delivery allocs/op = %v, want 0", allocs)
	}
}

type delayAll struct{ delay des.Time }

func (d delayAll) Intercept(_ des.Time, _, _ string, _ mac.Frame) Verdict {
	return Verdict{OverrideDelay: true, Delay: d.delay}
}

// BenchmarkBeaconDelivery measures one complete beacon delivery:
// enqueue, EDCA contention, fan-out to three receivers and decode.
func BenchmarkBeaconDelivery(b *testing.B) { benchBeaconDelivery(b, 4) }

// BenchmarkBeaconDelivery16 is the same delivery in a 16-radio platoon:
// fifteen receivers per beacon, the per-link path of the platoon-matrix
// workload.
func BenchmarkBeaconDelivery16(b *testing.B) { benchBeaconDelivery(b, 16) }

func benchBeaconDelivery(b *testing.B, n int) {
	k, _, src := beaconNet(b, n)
	var seq uint64
	for i := 0; i < 16; i++ {
		seq++
		deliverOneBeacon(b, k, src, seq)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		deliverOneBeacon(b, k, src, seq)
	}
}

// TestResetRecyclesInFlightReceptions ends every experiment with frames
// still on the air, as a DoS attack does, then resets and rebuilds the
// medium. The kernel reset drops those receptions' events, so Reset must
// return them to the freelist: the registry stays at one experiment's
// peak, and a warmed reset-and-rebuild cycle allocates nothing.
func TestResetRecyclesInFlightReceptions(t *testing.T) {
	const n = 8
	k := des.NewKernel()
	cfg := Config{
		Kernel:   k,
		Channel:  phy.DefaultChannelConfig(),
		Schedule: wave1609.NewSchedule(wave1609.AccessContinuous),
		Seed:     1,
	}
	air, err := NewAir(cfg)
	if err != nil {
		t.Fatalf("NewAir: %v", err)
	}
	ids := make([]string, n)
	pos := make([]func() geo.Vec, n)
	for i := range ids {
		x := float64(10 * i)
		ids[i] = scratchID(i)
		pos[i] = func() geo.Vec { return geo.Vec{X: x} }
	}
	handler := func(*mac.Frame, RxMeta) {}
	var dos Interceptor = delayAll{delay: 60 * des.Second}
	experiment := func() {
		k.Reset()
		if err := air.Reset(cfg); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		if len(air.recFree) != len(air.allRecs) {
			t.Fatalf("after Reset: %d of %d receptions free", len(air.recFree), len(air.allRecs))
		}
		for i := range ids {
			r, err := air.AddRadio(ids[i], pos[i], handler)
			if err != nil {
				t.Fatalf("AddRadio: %v", err)
			}
			b := msg.Beacon{Source: ids[i], Seq: 1, PlatoonID: "platoon.0", Speed: 25}
			if err := r.SendBeacon(b, 200, mac.ACVideo, 1); err != nil {
				t.Fatalf("SendBeacon: %v", err)
			}
		}
		air.SetInterceptor(dos)
		if err := k.RunUntil(des.Second); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
		if len(air.recFree) == len(air.allRecs) {
			t.Fatal("setup: no reception in flight at the end of the experiment")
		}
	}
	experiment()
	peak := len(air.allRecs)
	for i := 0; i < 10; i++ {
		experiment()
		if len(air.allRecs) != peak {
			t.Fatalf("experiment %d: registry grew to %d receptions, peak %d", i+2, len(air.allRecs), peak)
		}
	}
	if allocs := testing.AllocsPerRun(20, experiment); allocs != 0 {
		t.Errorf("reset-and-rebuild allocs/op = %v, want 0", allocs)
	}
}
