package mac

import (
	"errors"
	"fmt"
	"testing"

	"comfase/internal/sim/des"
	"comfase/internal/sim/rng"
	"comfase/internal/wave1609"
	"testing/quick"
)

// testHarness wires an EDCA entity to a fake medium that records
// transmissions and completes them after the airtime.
type testHarness struct {
	k    *des.Kernel
	m    *EDCA
	sent []sentFrame
	air  des.Time
}

type sentFrame struct {
	at des.Time
	f  Frame
}

func newHarness(t *testing.T, sched wave1609.Schedule) *testHarness {
	t.Helper()
	h := &testHarness{k: des.NewKernel(), air: 80 * des.Microsecond}
	m, err := New(Config{
		Kernel:   h.k,
		RNG:      rng.New(1, "mac-test"),
		Schedule: sched,
		Airtime:  func(int) des.Time { return h.air },
		Medium: transmitFunc(func(f Frame) {
			h.sent = append(h.sent, sentFrame{at: h.k.Now(), f: f})
			h.k.ScheduleAfter(h.air, h.m.TxDone)
		}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h.m = m
	return h
}

// transmitFunc is a test medium that transmits with a function and never
// holds carrier sense.
type transmitFunc func(Frame)

func (fn transmitFunc) Transmit(f Frame) { fn(f) }

func (transmitFunc) Held(des.Time) bool { return false }

func beacon(seq uint64) Frame {
	return Frame{Seq: seq, Src: "v", Bits: 424, AC: ACVideo}
}

func TestNewValidation(t *testing.T) {
	base := func() Config {
		return Config{
			Kernel:   des.NewKernel(),
			RNG:      rng.New(1, "x"),
			Schedule: wave1609.NewSchedule(wave1609.AccessContinuous),
			Airtime:  func(int) des.Time { return des.Microsecond },
			Medium:   transmitFunc(func(Frame) {}),
		}
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "nil kernel", mutate: func(c *Config) { c.Kernel = nil }},
		{name: "nil rng", mutate: func(c *Config) { c.RNG = nil }},
		{name: "nil airtime", mutate: func(c *Config) { c.Airtime = nil }},
		{name: "nil transmit", mutate: func(c *Config) { c.Medium = nil }},
		{name: "bad schedule", mutate: func(c *Config) { c.Schedule.Mode = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base()
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if _, err := New(base()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestAccessCategoryParams(t *testing.T) {
	if !ACVoice.Valid() || AccessCategory(0).Valid() || AccessCategory(9).Valid() {
		t.Error("Valid wrong")
	}
	if ACVoice.String() != "AC_VO" || ACBackground.String() != "AC_BK" {
		t.Error("String wrong")
	}
	// Higher priority -> shorter AIFS.
	if !(ACVoice.AIFS() < ACVideo.AIFS() &&
		ACVideo.AIFS() < ACBestEffort.AIFS() &&
		ACBestEffort.AIFS() < ACBackground.AIFS()) {
		t.Error("AIFS ordering violated")
	}
	// AC_VO AIFS = SIFS + 2*slot = 32 + 26 = 58 us.
	if got := ACVoice.AIFS(); got != 58*des.Microsecond {
		t.Errorf("VO AIFS = %v, want 58us", got)
	}
}

func TestImmediateTransmitOnIdleChannel(t *testing.T) {
	h := newHarness(t, wave1609.NewSchedule(wave1609.AccessContinuous))
	if err := h.m.Enqueue(beacon(1)); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	if err := h.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(h.sent) != 1 {
		t.Fatalf("sent %d frames, want 1", len(h.sent))
	}
	// Idle medium, empty queue: transmit after exactly one AIFS.
	if h.sent[0].at != ACVideo.AIFS() {
		t.Errorf("tx at %v, want AIFS %v", h.sent[0].at, ACVideo.AIFS())
	}
}

func TestEnqueueRejectsBadFrames(t *testing.T) {
	h := newHarness(t, wave1609.NewSchedule(wave1609.AccessContinuous))
	if err := h.m.Enqueue(Frame{Bits: 100}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("missing AC accepted: %v", err)
	}
	if err := h.m.Enqueue(Frame{AC: ACVideo}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("zero bits accepted: %v", err)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	h := newHarness(t, wave1609.NewSchedule(wave1609.AccessContinuous))
	h.m.ChannelBusy(h.k.Now()) // block transmissions so the queue fills
	var full int
	for i := 0; i < 40; i++ {
		if err := h.m.Enqueue(beacon(uint64(i))); errors.Is(err, ErrQueueFull) {
			full++
		}
	}
	if full != 8 { // default queue 32
		t.Errorf("dropped %d frames, want 8", full)
	}
	if h.m.Stats().DroppedQueueFull != 8 {
		t.Errorf("stats dropped = %d", h.m.Stats().DroppedQueueFull)
	}
	if h.m.QueueLen(ACVideo) != 32 {
		t.Errorf("queue len = %d", h.m.QueueLen(ACVideo))
	}
}

func TestBusyChannelDefersTransmission(t *testing.T) {
	h := newHarness(t, wave1609.NewSchedule(wave1609.AccessContinuous))
	h.m.ChannelBusy(h.k.Now())
	if err := h.m.Enqueue(beacon(1)); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	// Medium stays busy until 1 ms.
	h.k.ScheduleAt(des.Millisecond, func() { h.m.ChannelIdle(h.k.Now()) })
	if err := h.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(h.sent) != 1 {
		t.Fatalf("sent %d, want 1", len(h.sent))
	}
	if h.sent[0].at < des.Millisecond+ACVideo.AIFS() {
		t.Errorf("tx at %v before busy period ended + AIFS", h.sent[0].at)
	}
	// A frame that arrived on a busy medium must have drawn a backoff.
	if h.m.Stats().BackoffsDrawn == 0 {
		t.Error("no backoff drawn for busy arrival")
	}
}

func TestBusyInterruptsPendingAttempt(t *testing.T) {
	h := newHarness(t, wave1609.NewSchedule(wave1609.AccessContinuous))
	if err := h.m.Enqueue(beacon(1)); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	// Busy hits during the AIFS wait.
	h.k.ScheduleAt(10*des.Microsecond, func() { h.m.ChannelBusy(h.k.Now()) })
	h.k.ScheduleAt(500*des.Microsecond, func() { h.m.ChannelIdle(h.k.Now()) })
	if err := h.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(h.sent) != 1 {
		t.Fatalf("sent %d, want 1", len(h.sent))
	}
	if h.m.Stats().BusyDeferrals != 1 {
		t.Errorf("BusyDeferrals = %d, want 1", h.m.Stats().BusyDeferrals)
	}
	if h.sent[0].at < 500*des.Microsecond+ACVideo.AIFS() {
		t.Errorf("tx at %v too early after interruption", h.sent[0].at)
	}
}

func TestBackToBackFramesRecontend(t *testing.T) {
	h := newHarness(t, wave1609.NewSchedule(wave1609.AccessContinuous))
	for i := 0; i < 3; i++ {
		if err := h.m.Enqueue(beacon(uint64(i))); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	if err := h.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(h.sent) != 3 {
		t.Fatalf("sent %d, want 3", len(h.sent))
	}
	for i := 1; i < 3; i++ {
		gap := h.sent[i].at.Sub(h.sent[i-1].at)
		if gap < h.air+ACVideo.AIFS() {
			t.Errorf("frame %d gap %v shorter than airtime+AIFS", i, gap)
		}
	}
	// Queued follow-ups draw post-transmission backoffs.
	if h.m.Stats().BackoffsDrawn < 2 {
		t.Errorf("BackoffsDrawn = %d, want >= 2", h.m.Stats().BackoffsDrawn)
	}
}

func TestInternalContentionHigherACWins(t *testing.T) {
	h := newHarness(t, wave1609.NewSchedule(wave1609.AccessContinuous))
	h.m.ChannelBusy(h.k.Now()) // hold both frames in queue
	lo := beacon(1)
	lo.AC = ACBestEffort
	hi := beacon(2)
	hi.AC = ACVoice
	_ = h.m.Enqueue(lo)
	_ = h.m.Enqueue(hi)
	h.k.ScheduleAt(des.Millisecond, func() { h.m.ChannelIdle(h.k.Now()) })
	if err := h.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(h.sent) != 2 {
		t.Fatalf("sent %d, want 2", len(h.sent))
	}
	if h.sent[0].f.AC != ACVoice {
		t.Errorf("first tx was %v, want AC_VO", h.sent[0].f.AC)
	}
}

func TestAlternatingAccessDefersToCCHWindow(t *testing.T) {
	h := newHarness(t, wave1609.NewSchedule(wave1609.AccessAlternating))
	// Enqueue during the SCH interval (t = 60 ms).
	h.k.ScheduleAt(60*des.Millisecond, func() {
		if err := h.m.Enqueue(beacon(1)); err != nil {
			t.Errorf("Enqueue: %v", err)
		}
	})
	if err := h.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(h.sent) != 1 {
		t.Fatalf("sent %d, want 1", len(h.sent))
	}
	// Next CCH window opens at 104 ms (guard passed).
	if h.sent[0].at < 104*des.Millisecond || h.sent[0].at > 105*des.Millisecond {
		t.Errorf("tx at %v, want within next CCH window start", h.sent[0].at)
	}
}

func TestTxDoneWithoutTransmittingIsNoop(t *testing.T) {
	h := newHarness(t, wave1609.NewSchedule(wave1609.AccessContinuous))
	h.m.TxDone() // must not panic or corrupt state
	if h.m.Transmitting() {
		t.Error("Transmitting after spurious TxDone")
	}
}

func TestChannelBusyIdempotent(t *testing.T) {
	h := newHarness(t, wave1609.NewSchedule(wave1609.AccessContinuous))
	h.m.ChannelBusy(h.k.Now())
	h.m.ChannelBusy(h.k.Now())
	if !h.m.Busy() {
		t.Error("not busy")
	}
	h.m.ChannelIdle(h.k.Now())
	h.m.ChannelIdle(h.k.Now())
	if h.m.Busy() {
		t.Error("still busy")
	}
}

func TestManyFramesAllDelivered(t *testing.T) {
	h := newHarness(t, wave1609.NewSchedule(wave1609.AccessContinuous))
	const n = 100
	tick := des.NewTicker(h.k, 100*des.Millisecond, des.PriorityNormal, func() {
		if h.m.Stats().Enqueued < n {
			_ = h.m.Enqueue(beacon(h.m.Stats().Enqueued))
		}
	})
	tick.Start(0)
	if err := h.k.RunUntil(11 * des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	tick.StopTicker()
	if len(h.sent) != n {
		t.Errorf("sent %d, want %d", len(h.sent), n)
	}
	if h.m.Stats().Sent != n {
		t.Errorf("stats sent = %d", h.m.Stats().Sent)
	}
}

// Property: the MAC, fed random frame arrival patterns with random busy
// periods, eventually sends every accepted frame and never double-sends.
func TestEventualDeliveryProperty(t *testing.T) {
	f := func(arrivalsMs []uint8, busyAtMs uint8, busyLenMs uint8) bool {
		if len(arrivalsMs) == 0 || len(arrivalsMs) > 20 {
			return true
		}
		h := newHarness(t, wave1609.NewSchedule(wave1609.AccessContinuous))
		accepted := 0
		for i, a := range arrivalsMs {
			i := i
			h.k.ScheduleAt(des.Time(a)*des.Millisecond, func() {
				if err := h.m.Enqueue(beacon(uint64(i))); err == nil {
					accepted++
				}
			})
		}
		busyStart := des.Time(busyAtMs) * des.Millisecond
		busyEnd := busyStart + des.Time(busyLenMs)*des.Millisecond + des.Millisecond
		h.k.ScheduleAt(busyStart, func() { h.m.ChannelBusy(h.k.Now()) })
		h.k.ScheduleAt(busyEnd, func() { h.m.ChannelIdle(h.k.Now()) })
		if err := h.k.Run(); err != nil {
			return false
		}
		return len(h.sent) == accepted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: drawn backoffs always stay within [0, CWmin] slots of extra
// deferral beyond AIFS (no contention-window escalation for broadcast).
func TestBackoffBoundedProperty(t *testing.T) {
	h := newHarness(t, wave1609.NewSchedule(wave1609.AccessContinuous))
	// Force backoff draws by keeping the channel busy at every arrival.
	h.m.ChannelBusy(h.k.Now())
	for i := 0; i < 30; i++ {
		_ = h.m.Enqueue(beacon(uint64(i)))
	}
	h.k.ScheduleAt(des.Millisecond, func() { h.m.ChannelIdle(h.k.Now()) })
	if err := h.k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	maxGap := h.air + ACVideo.AIFS() +
		des.Time(ACVideo.Params().CWmin)*SlotTime
	for i := 1; i < len(h.sent); i++ {
		gap := h.sent[i].at.Sub(h.sent[i-1].at)
		if gap > maxGap {
			t.Fatalf("inter-frame gap %v exceeds airtime+AIFS+CWmin slots (%v)", gap, maxGap)
		}
	}
}

// holdMedium is a test medium that holds every attempt while hold is set.
type holdMedium struct {
	transmitFunc
	hold *bool
}

func (m holdMedium) Held(des.Time) bool { return *m.hold }

// TestHeldAttemptMatchesScheduled: a held attempt takes no kernel event,
// yet kick and the interruption make every deferral update, count and
// backoff draw a scheduled-then-canceled attempt makes. Under 1 ms busy
// periods 13 µs apart (shorter than any AIFS), a MAC whose medium holds
// every attempt and one whose medium holds none must agree on their
// stats, their transmissions after carrier sense is released, and their
// backoff streams, and the held MAC must have queued no attempt. A
// snapshot taken with a held attempt pending restores it: the next busy
// period still interrupts it.
func TestHeldAttemptMatchesScheduled(t *testing.T) {
	run := func(hold bool) (*testHarness, int) {
		h := newHarness(t, wave1609.NewSchedule(wave1609.AccessContinuous))
		holding := hold
		m := h.m
		if err := m.Reset(Config{
			Kernel: h.k, RNG: rng.New(1, "mac-test"), Schedule: wave1609.NewSchedule(wave1609.AccessContinuous),
			Airtime: func(int) des.Time { return h.air },
			Medium: holdMedium{transmitFunc: func(f Frame) {
				h.sent = append(h.sent, sentFrame{at: h.k.Now(), f: f})
				h.k.ScheduleAfter(h.air, m.TxDone)
			}, hold: &holding},
		}); err != nil {
			t.Fatal(err)
		}
		m.ChannelBusy(h.k.Now())
		for i := 0; i < 3; i++ {
			if err := m.Enqueue(beacon(uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		peak := 0
		for i := 1; i <= 50; i++ {
			idle := des.Time(i) * des.Millisecond
			h.k.ScheduleAt(idle, func() { m.ChannelIdle(h.k.Now()) })
			h.k.ScheduleAt(idle+SlotTime, func() { m.ChannelBusy(h.k.Now()) })
			h.k.ScheduleAt(idle+SlotTime, func() { peak = max(peak, h.k.Pending()) })
		}
		if err := h.k.RunUntil(25 * des.Millisecond); err != nil {
			t.Fatal(err)
		}
		var st EDCAState
		m.SaveState(&st)
		attempt := m.attempt
		m.LoadState(&EDCAState{})
		m.LoadState(&st)
		if m.attempt != attempt {
			t.Fatalf("restored attempt %v, saved %v", m.attempt, attempt)
		}
		h.k.ScheduleAt(60*des.Millisecond, func() { holding = false; m.ChannelIdle(h.k.Now()) })
		if err := h.k.Run(); err != nil {
			t.Fatal(err)
		}
		return h, peak
	}
	held, heldPeak := run(true)
	sched, schedPeak := run(false)
	if held.m.Stats() != sched.m.Stats() || fmt.Sprint(held.sent) != fmt.Sprint(sched.sent) {
		t.Errorf("held: stats %+v, sent %v; scheduled: %+v, %v", held.m.Stats(), held.sent, sched.m.Stats(), sched.sent)
	}
	if held.m.Stats().BusyDeferrals != 50 || len(held.sent) != 3 {
		t.Errorf("%d busy deferrals and %d frames sent, want 50 and 3", held.m.Stats().BusyDeferrals, len(held.sent))
	}
	if a, b := held.m.rng.IntN(1<<30), sched.m.rng.IntN(1<<30); a != b {
		t.Errorf("backoff streams diverged: next draw %d held, %d scheduled", a, b)
	}
	if heldPeak >= schedPeak {
		t.Errorf("peak queue %d held, %d scheduled: held attempts must not be queued", heldPeak, schedPeak)
	}
}
