package nic

import (
	"testing"

	"comfase/internal/geo"
	"comfase/internal/mac"
	"comfase/internal/phy"
	"comfase/internal/sim/des"
	"comfase/internal/sim/rng"
	"comfase/internal/wave1609"
)

// rxRecord is one decoded delivery. power and sinr are read through
// RxMeta's methods during the handler call, while they are valid;
// deferred reports whether the power was still uncomputed when the
// handler ran.
type rxRecord struct {
	at       des.Time
	f        mac.Frame
	meta     RxMeta
	power    float64
	sinr     float64
	deferred bool
}

// record captures a delivery inside its handler call.
func record(at des.Time, f *mac.Frame, m RxMeta) rxRecord {
	deferred := m.rec.deferred
	return rxRecord{at: at, f: *f, meta: m, power: m.RxPowerDBm(), sinr: m.SINRdB(), deferred: deferred}
}

type testNet struct {
	k   *des.Kernel
	air *Air
	rx  map[string][]rxRecord
}

// newNet builds a medium with radios at fixed positions.
func newNet(t *testing.T, positions map[string]geo.Vec) *testNet {
	t.Helper()
	n := &testNet{k: des.NewKernel(), rx: make(map[string][]rxRecord)}
	air, err := NewAir(Config{
		Kernel:   n.k,
		Channel:  phy.DefaultChannelConfig(),
		Schedule: wave1609.NewSchedule(wave1609.AccessContinuous),
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("NewAir: %v", err)
	}
	n.air = air
	for id, p := range positions {
		id, p := id, p
		_, err := air.AddRadio(id, func() geo.Vec { return p }, func(f *mac.Frame, m RxMeta) {
			n.rx[id] = append(n.rx[id], record(n.k.Now(), f, m))
		})
		if err != nil {
			t.Fatalf("AddRadio(%s): %v", id, err)
		}
	}
	return n
}

func (n *testNet) send(t *testing.T, from string, seq uint64) {
	t.Helper()
	r, err := n.air.Radio(from)
	if err != nil {
		t.Fatalf("Radio: %v", err)
	}
	if err := r.Send("payload", 200, mac.ACVideo, seq); err != nil {
		t.Fatalf("Send: %v", err)
	}
}

func TestNewAirValidation(t *testing.T) {
	if _, err := NewAir(Config{}); err == nil {
		t.Error("missing kernel accepted")
	}
	bad := phy.DefaultChannelConfig()
	bad.PathLoss = nil
	if _, err := NewAir(Config{Kernel: des.NewKernel(), Channel: bad,
		Schedule: wave1609.NewSchedule(wave1609.AccessContinuous)}); err == nil {
		t.Error("bad channel accepted")
	}
	cfg := Config{Kernel: des.NewKernel(), Channel: phy.DefaultChannelConfig()}
	if _, err := NewAir(cfg); err == nil {
		t.Error("bad schedule accepted")
	}
}

func TestAddRadioValidation(t *testing.T) {
	n := newNet(t, map[string]geo.Vec{"a": {}})
	if _, err := n.air.AddRadio("", func() geo.Vec { return geo.Vec{} }, nil); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := n.air.AddRadio("b", nil, nil); err == nil {
		t.Error("nil position accepted")
	}
	if _, err := n.air.AddRadio("a", func() geo.Vec { return geo.Vec{} }, nil); err == nil {
		t.Error("duplicate ID accepted")
	}
	if _, err := n.air.Radio("missing"); err == nil {
		t.Error("unknown radio lookup succeeded")
	}
}

func TestBroadcastReachesAllOthers(t *testing.T) {
	n := newNet(t, map[string]geo.Vec{
		"v1": {X: 0}, "v2": {X: 10}, "v3": {X: 20}, "v4": {X: 30},
	})
	n.send(t, "v1", 1)
	if err := n.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, id := range []string{"v2", "v3", "v4"} {
		if len(n.rx[id]) != 1 {
			t.Errorf("%s received %d frames, want 1", id, len(n.rx[id]))
		}
	}
	if len(n.rx["v1"]) != 0 {
		t.Error("sender received its own frame")
	}
	if n.air.Stats().Deliveries != 3 {
		t.Errorf("Deliveries = %d, want 3", n.air.Stats().Deliveries)
	}
}

func TestPropagationDelayIsDistanceOverC(t *testing.T) {
	n := newNet(t, map[string]geo.Vec{"a": {X: 0}, "b": {X: 1000}})
	n.send(t, "a", 1)
	if err := n.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(n.rx["b"]) != 1 {
		t.Fatalf("b received %d", len(n.rx["b"]))
	}
	meta := n.rx["b"][0].meta
	want := des.FromSeconds(1000 / phy.SpeedOfLight) // ~3.3 us
	if meta.PropDelay != want {
		t.Errorf("PropDelay = %v, want %v", meta.PropDelay, want)
	}
	// Delivery = send + AIFS-ish MAC delay + prop delay + airtime; the
	// reception itself spans start+airtime.
	if meta.RxAt != n.rx["b"][0].at {
		t.Error("RxAt inconsistent with delivery time")
	}
}

func TestOutOfRangeNotDelivered(t *testing.T) {
	// Free space at 5.89 GHz with 23 dBm: sensitivity -89 dBm is crossed
	// around 1.5 km; 9 km is far out of range.
	n := newNet(t, map[string]geo.Vec{"a": {X: 0}, "b": {X: 9000}})
	n.send(t, "a", 1)
	if err := n.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(n.rx["b"]) != 0 {
		t.Error("9 km frame delivered")
	}
	if n.air.Stats().DroppedBelowSensitivity != 1 {
		t.Errorf("DroppedBelowSensitivity = %d, want 1", n.air.Stats().DroppedBelowSensitivity)
	}
}

func TestCarrierSenseRaisesAndClears(t *testing.T) {
	n := newNet(t, map[string]geo.Vec{"a": {X: 0}, "b": {X: 10}})
	n.send(t, "a", 1)
	rb, _ := n.air.Radio("b")
	sawBusy := false
	// Poll carrier sense while the frame is on the air (tx starts at
	// AIFS≈71us and lasts 80us).
	n.k.ScheduleAt(120*des.Microsecond, func() {
		if rb.MAC().Busy() {
			sawBusy = true
		}
	})
	if err := n.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sawBusy {
		t.Error("receiver MAC never sensed the medium busy")
	}
	if rb.MAC().Busy() {
		t.Error("carrier sense stuck busy after frame end")
	}
}

func TestHalfDuplexLoss(t *testing.T) {
	// Two radios sending at the same instant cannot hear each other.
	n := newNet(t, map[string]geo.Vec{"a": {X: 0}, "b": {X: 10}})
	n.send(t, "a", 1)
	n.send(t, "b", 2)
	if err := n.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Both started their AIFS at t=0 with an idle medium, so both
	// transmit simultaneously and are deaf to each other.
	if got := n.air.Stats().DroppedHalfDuplex; got != 2 {
		t.Errorf("DroppedHalfDuplex = %d, want 2", got)
	}
	if len(n.rx["a"])+len(n.rx["b"]) != 0 {
		t.Error("simultaneous transmitters still heard each other")
	}
}

func TestCSMADefersSecondSender(t *testing.T) {
	// Stagger the second sender so it senses the first transmission and
	// defers instead of colliding.
	n := newNet(t, map[string]geo.Vec{"a": {X: 0}, "b": {X: 10}, "c": {X: 20}})
	n.send(t, "a", 1)
	n.k.ScheduleAt(100*des.Microsecond, func() { n.send(t, "b", 2) })
	if err := n.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// c hears both frames.
	if len(n.rx["c"]) != 2 {
		t.Fatalf("c received %d frames, want 2", len(n.rx["c"]))
	}
	// b deferred: it also decodes a's frame (it was not transmitting
	// while a's frame was on the air).
	if len(n.rx["b"]) != 1 {
		t.Errorf("b received %d frames, want 1 (deferred, not collided)", len(n.rx["b"]))
	}
}

type fixedVerdict struct {
	v     Verdict
	calls []string
}

func (f *fixedVerdict) Intercept(_ des.Time, src, dst string, _ mac.Frame) Verdict {
	f.calls = append(f.calls, src+">"+dst)
	return f.v
}

func TestInterceptorDrop(t *testing.T) {
	n := newNet(t, map[string]geo.Vec{"a": {X: 0}, "b": {X: 10}})
	ic := &fixedVerdict{v: Verdict{Drop: true}}
	n.air.SetInterceptor(ic)
	n.send(t, "a", 1)
	if err := n.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(n.rx["b"]) != 0 {
		t.Error("dropped frame delivered")
	}
	if n.air.Stats().DroppedByInterceptor != 1 {
		t.Errorf("DroppedByInterceptor = %d", n.air.Stats().DroppedByInterceptor)
	}
	if len(ic.calls) != 1 || ic.calls[0] != "a>b" {
		t.Errorf("interceptor calls = %v", ic.calls)
	}
}

func TestInterceptorDelayOverride(t *testing.T) {
	n := newNet(t, map[string]geo.Vec{"a": {X: 0}, "b": {X: 10}})
	n.air.SetInterceptor(&fixedVerdict{v: Verdict{OverrideDelay: true, Delay: 2 * des.Second}})
	n.send(t, "a", 1)
	if err := n.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(n.rx["b"]) != 1 {
		t.Fatalf("b received %d", len(n.rx["b"]))
	}
	got := n.rx["b"][0].meta
	if got.PropDelay != 2*des.Second {
		t.Errorf("PropDelay = %v, want 2s override", got.PropDelay)
	}
	if got.RxAt < 2*des.Second {
		t.Errorf("delivery at %v, want after 2s", got.RxAt)
	}
	if n.air.Stats().DelayOverridden != 1 {
		t.Errorf("DelayOverridden = %d", n.air.Stats().DelayOverridden)
	}
}

func TestInterceptorPayloadFalsification(t *testing.T) {
	n := newNet(t, map[string]geo.Vec{"a": {X: 0}, "b": {X: 10}})
	n.air.SetInterceptor(&fixedVerdict{v: Verdict{Payload: "falsified"}})
	n.send(t, "a", 1)
	if err := n.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(n.rx["b"]) != 1 {
		t.Fatalf("b received %d", len(n.rx["b"]))
	}
	if got, _ := n.rx["b"][0].f.Payload.(string); got != "falsified" {
		t.Errorf("payload = %q, want falsified", got)
	}
}

func TestInterceptorRemoval(t *testing.T) {
	n := newNet(t, map[string]geo.Vec{"a": {X: 0}, "b": {X: 10}})
	n.air.SetInterceptor(&fixedVerdict{v: Verdict{Drop: true}})
	n.air.SetInterceptor(nil)
	if n.air.Interceptor() != nil {
		t.Fatal("interceptor not removed")
	}
	n.send(t, "a", 1)
	if err := n.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(n.rx["b"]) != 1 {
		t.Error("frame not delivered after interceptor removal")
	}
}

func TestDoSStyleDelayNeverDeliversWithinHorizon(t *testing.T) {
	// The DoS model sets PD = 60 s; within a 60 s RunUntil horizon the
	// delivery events never fire.
	n := newNet(t, map[string]geo.Vec{"a": {X: 0}, "b": {X: 10}})
	n.air.SetInterceptor(&fixedVerdict{v: Verdict{OverrideDelay: true, Delay: 60 * des.Second}})
	n.send(t, "a", 1)
	if err := n.k.RunUntil(60 * des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(n.rx["b"]) != 0 {
		t.Error("DoS-delayed frame delivered within horizon")
	}
}

func TestBeaconingAllPairsDeliver(t *testing.T) {
	// 4 radios beaconing at 10 Hz for 2 s: 4*20 frames, each heard by 3
	// receivers, modulo rare CSMA losses. With CSMA deferral there
	// should be zero loss at these ranges.
	n := newNet(t, map[string]geo.Vec{
		"v1": {X: 30}, "v2": {X: 20}, "v3": {X: 10}, "v4": {X: 0},
	})
	for i, id := range []string{"v1", "v2", "v3", "v4"} {
		id := id
		phase := des.Time(i) * 2 * des.Millisecond // staggered like real CAMs
		tk := des.NewTicker(n.k, 100*des.Millisecond, des.PriorityNormal, func() {
			n.send(t, id, 0)
		})
		tk.Start(phase)
	}
	if err := n.k.RunUntil(2 * des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	total := 0
	for _, id := range []string{"v1", "v2", "v3", "v4"} {
		total += len(n.rx[id])
	}
	sent := n.air.Stats().FramesSent
	if sent < 80 {
		t.Fatalf("sent %d frames, want >= 80", sent)
	}
	if uint64(total) != 3*sent {
		t.Errorf("delivered %d, want %d (3 per frame)", total, 3*sent)
	}
}

func TestProbabilisticDeciderDropsAtLowSNR(t *testing.T) {
	cfg := phy.DefaultChannelConfig()
	cfg.Decider = phy.DeciderProbabilistic
	k := des.NewKernel()
	air, err := NewAir(Config{
		Kernel: k, Channel: cfg,
		Schedule: wave1609.NewSchedule(wave1609.AccessContinuous), Seed: 3,
	})
	if err != nil {
		t.Fatalf("NewAir: %v", err)
	}
	got := 0
	// 1.3 km: above sensitivity (~-86 dBm) but SNR ~12 dB, PER should be
	// essentially zero for QPSK 1/2; so frames still deliver. Move to a
	// distance with marginal SNR instead: ~2 km is below sensitivity.
	// Use 1.4 km: rx ~ -86.6, SNR ~11.4 -> deliverable.
	a, _ := air.AddRadio("a", func() geo.Vec { return geo.Vec{} }, nil)
	_, _ = air.AddRadio("b", func() geo.Vec { return geo.Vec{X: 1400} },
		func(*mac.Frame, RxMeta) { got++ })
	for i := 0; i < 20; i++ {
		k.ScheduleAt(des.Time(i)*10*des.Millisecond, func() {
			_ = a.Send("x", 200, mac.ACVideo, 0)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got == 0 {
		t.Error("probabilistic decider delivered nothing at decodable SNR")
	}
}

// TestHiddenTerminalSINRCollision reproduces the classic hidden-terminal
// failure: two senders out of carrier-sense range of each other transmit
// simultaneously; at a receiver in the middle both frames arrive with
// comparable power, the SINR collapses, and both are lost.
func TestHiddenTerminalSINRCollision(t *testing.T) {
	// a <-1200m-> mid <-1200m-> b: a and b are 2400 m apart, below both
	// sensitivity and CCA at each other, so CSMA cannot help them.
	n := newNet(t, map[string]geo.Vec{
		"a": {X: 0}, "mid": {X: 1200}, "b": {X: 2400},
	})
	n.send(t, "a", 1)
	n.send(t, "b", 2)
	if err := n.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(n.rx["mid"]) != 0 {
		t.Errorf("mid decoded %d frames through a collision", len(n.rx["mid"]))
	}
	if n.air.Stats().DroppedSINR < 2 {
		t.Errorf("DroppedSINR = %d, want >= 2", n.air.Stats().DroppedSINR)
	}
}

// TestStaggeredHiddenTerminalsStillCollide shifts the second hidden
// sender into the middle of the first transmission: partial overlap must
// also destroy both frames (worst-case interference accounting).
func TestStaggeredHiddenTerminalsStillCollide(t *testing.T) {
	n := newNet(t, map[string]geo.Vec{
		"a": {X: 0}, "mid": {X: 1200}, "b": {X: 2400},
	})
	n.send(t, "a", 1)
	// Frame airtime is 80 us; b starts while a's frame is in the air at
	// mid (a transmits at ~71 us + prop delay, so 120 us overlaps).
	n.k.ScheduleAt(60*des.Microsecond, func() { n.send(t, "b", 2) })
	if err := n.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(n.rx["mid"]) != 0 {
		t.Errorf("mid decoded %d frames through a partial collision", len(n.rx["mid"]))
	}
}

// TestNearFarCapture: a strong nearby transmitter survives interference
// from a weak distant one (capture effect through the SINR decider).
func TestNearFarCapture(t *testing.T) {
	n := newNet(t, map[string]geo.Vec{
		"near": {X: 10}, "rx": {X: 0}, "far": {X: 2300},
	})
	n.send(t, "near", 1)
	n.send(t, "far", 2)
	if err := n.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The near frame (rx ~ -45 dBm) shrugs off the far one (~ -91 dBm).
	got := 0
	for _, r := range n.rx["rx"] {
		if r.f.Src == "near" {
			got++
		}
	}
	if got != 1 {
		t.Errorf("near frame not captured: %d", got)
	}
}

// TestNakagamiFadingCausesLossAtRange: with fast fading, a link near the
// edge of the deterministic range loses a visible fraction of frames,
// while a very short link stays essentially loss-free.
func TestNakagamiFadingCausesLossAtRange(t *testing.T) {
	build := func(dist float64) (*des.Kernel, *Air, *int) {
		cfg := phy.DefaultChannelConfig()
		cfg.Fading = phy.NewNakagamiFading(rng.New(7, "fading"))
		k := des.NewKernel()
		air, err := NewAir(Config{
			Kernel: k, Channel: cfg,
			Schedule: wave1609.NewSchedule(wave1609.AccessContinuous), Seed: 7,
		})
		if err != nil {
			t.Fatalf("NewAir: %v", err)
		}
		got := 0
		a, _ := air.AddRadio("a", func() geo.Vec { return geo.Vec{} }, nil)
		_, _ = air.AddRadio("b", func() geo.Vec { return geo.Vec{X: dist} },
			func(*mac.Frame, RxMeta) { got++ })
		for i := 0; i < 200; i++ {
			k.ScheduleAt(des.Time(i)*10*des.Millisecond, func() {
				_ = a.Send("x", 200, mac.ACVideo, 0)
			})
		}
		return k, air, &got
	}
	k, _, gotNear := build(10)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if *gotNear < 195 {
		t.Errorf("near link delivered %d/200 under fading, want ~200", *gotNear)
	}
	k2, _, gotFar := build(900)
	if err := k2.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if *gotFar >= 195 || *gotFar == 0 {
		t.Errorf("900 m link delivered %d/200 under fading, want partial loss", *gotFar)
	}
}
