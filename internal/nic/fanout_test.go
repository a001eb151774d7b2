package nic

import (
	"math"
	"reflect"
	"testing"

	"comfase/internal/geo"
	"comfase/internal/mac"
	"comfase/internal/phy"
	"comfase/internal/sim/des"
	"comfase/internal/wave1609"
)

// fanoutBytes hands out fuzz input bytes, then zeros once it runs dry.
type fanoutBytes struct {
	data []byte
	i    int
}

func (b *fanoutBytes) next() int {
	if b.i >= len(b.data) {
		return 0
	}
	b.i++
	return int(b.data[b.i-1])
}

// fanoutInterceptor cycles through verdict codes, one per Intercept call:
// pass, drop, or a delay override: 0, a seventh, half, one or two
// airtimes, or one of three negative delays, two of them shorter than the
// airtime.
type fanoutInterceptor struct {
	codes []byte
	dur   des.Time
	calls int
}

func (fi *fanoutInterceptor) Intercept(_ des.Time, _, _ string, _ mac.Frame) Verdict {
	delays := [...]des.Time{0, fi.dur / 2, fi.dur, 2 * fi.dur, -fi.dur / 3, -3 * fi.dur, -fi.dur / 5, fi.dur / 7}
	code := int(fi.codes[fi.calls%len(fi.codes)]) % (2 + len(delays))
	fi.calls++
	switch code {
	case 0:
		return Verdict{}
	case 1:
		return Verdict{Drop: true}
	default:
		return Verdict{OverrideDelay: true, Delay: delays[code-2]}
	}
}

// fanoutEvent is one dispatched fan-out handler (kind "txDone", "begin"
// or "end", with the Executed count) or one delivery (kind "rx", with the
// frame and the power and SINR bits, inside the "end" before it).
type fanoutEvent struct {
	kind     string
	radio    string
	now      des.Time
	executed uint64
	src      string
	seq      uint64
	power    uint64
	sinr     uint64
}

// fanoutTrace is everything a medium run exposes.
type fanoutTrace struct {
	events   []fanoutEvent
	stats    Stats
	mac      []mac.Stats
	executed uint64
}

// fanoutPool is how many receptions instrumentFanout pre-registers at
// least; a run that needs more fails instead of dispatching unrecorded
// handlers.
const fanoutPool = 1024

// instrumentFanout makes every fan-out handler of air append to tr when it
// is dispatched: each radio's txDone, and the begin and end of a pool of
// pre-registered data receptions, which the freelist recycles with their
// handlers intact. It returns the size of the pool. A jamming burst at an
// idle radio stays off the kernel queue in production, so noise
// receptions are not logged, and each logged event first settles every
// radio, as reading the medium's stats would: its Executed count then
// includes every event before it, dispatched or settled.
func instrumentFanout(k *des.Kernel, air *Air, tr *fanoutTrace) int {
	log := func(kind, radio string) {
		for _, r := range air.radios {
			r.settle()
		}
		tr.events = append(tr.events, fanoutEvent{kind: kind, radio: radio, now: k.Now(), executed: k.Executed()})
	}
	for _, r := range air.radios {
		r, done := r, r.txDoneFn
		r.txDoneFn = func() { log("txDone", r.id); done() }
	}
	for len(air.allRecs) < fanoutPool {
		air.refill()
	}
	for _, rec := range air.allRecs {
		rec, fn := rec, rec.fn
		rec.fn = func() {
			if rec.noise {
				fn()
				return
			}
			kind := "begin"
			if rec.begun {
				kind = "end"
			}
			log(kind, rec.dst.id)
			fn()
		}
	}
	return len(air.allRecs)
}

// fanoutPositions holds co-located radios (0 twice), radios equidistant
// from one another (±10, ±20), hidden terminals (1300, 2500) and one
// outside sensitivity.
var fanoutPositions = [...]float64{0, 0, 10, -10, 20, -20, 5, 1300, 2500, 4000}

// runFanoutMedium decodes a random medium from data, runs it for 40 ms
// and returns its trace, and whether any fan-out took the general sort
// (Air.queueSorted). reference selects the reference medium, whose
// emission is one ScheduleAt per fan-out event in the order the fan-out
// makes them.
func runFanoutMedium(t testing.TB, data []byte, reference bool) (tr fanoutTrace, sorted bool) {
	in := &fanoutBytes{data: data}
	k := des.NewKernel()
	ch := phy.DefaultChannelConfig()
	if in.next()%4 == 3 {
		ch.Decider = phy.DeciderProbabilistic
	}
	air, err := NewAir(Config{
		Kernel:    k,
		Channel:   ch,
		Schedule:  wave1609.NewSchedule(wave1609.AccessContinuous),
		Seed:      7,
		Reference: reference,
	})
	if err != nil {
		t.Fatalf("NewAir: %v", err)
	}

	n := 2 + in.next()%6
	radios := make([]*Radio, n)
	for i := range radios {
		p := geo.Vec{X: fanoutPositions[in.next()%len(fanoutPositions)]}
		id := scratchID(i)
		r, err := air.AddRadio(id, func() geo.Vec { return p }, func(f *mac.Frame, m RxMeta) {
			tr.events = append(tr.events, fanoutEvent{
				kind: "rx", radio: id, now: k.Now(), src: f.Src, seq: f.Seq,
				power: math.Float64bits(m.RxPowerDBm()), sinr: math.Float64bits(m.SINRdB()),
			})
		})
		if err != nil {
			t.Fatalf("AddRadio: %v", err)
		}
		radios[i] = r
	}

	pool := instrumentFanout(k, air, &tr)

	if code := in.next(); code%2 == 1 {
		codes := []byte{byte(code >> 1)}
		for i := 0; i < 7; i++ {
			codes = append(codes, byte(in.next()))
		}
		air.SetInterceptor(&fanoutInterceptor{codes: codes, dur: air.airtime(200 + MACOverheadBits)})
	}

	if in.next()%3 == 0 {
		p := geo.Vec{X: fanoutPositions[in.next()%len(fanoutPositions)]}
		power := [...]float64{-20, 10, 30}[in.next()%3]
		burst := des.Time(1+in.next()%8) * 50 * des.Microsecond
		j, err := air.AddJammer("j", func() geo.Vec { return p }, power, burst, 2*burst)
		if err != nil {
			t.Fatalf("AddJammer: %v", err)
		}
		on := des.Time(in.next()%40) * des.Millisecond / 2
		off := on + des.Time(1+in.next()%8)*des.Millisecond
		k.ScheduleAt(on, j.Start)
		k.ScheduleAt(off, j.Stop)
	}

	sends := 1 + in.next()%12
	for s := 0; s < sends; s++ {
		r := radios[in.next()%n]
		at := des.Time(in.next()%64) * 20 * des.Microsecond
		bits := 100 + 50*(in.next()%6)
		seq := uint64(s + 1)
		k.ScheduleAt(at, func() {
			if err := r.Send("x", bits, mac.ACVideo, seq); err != nil {
				t.Errorf("Send: %v", err)
			}
		})
	}

	if err := k.RunUntil(40 * des.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(air.allRecs) > pool {
		t.Fatalf("%d receptions registered, only %d instrumented", len(air.allRecs), pool)
	}
	tr.stats = air.Stats()
	for _, r := range radios {
		tr.mac = append(tr.mac, r.MAC().Stats())
	}
	tr.executed = k.Executed()
	return tr, cap(air.keys) > 0
}

// FuzzFanoutOrder runs one random medium twice: through the production
// medium, whose batched fan-out queues events in dispatch order, and
// through the reference medium, which queues one ScheduleAt per event in
// the order the fan-out makes them. The media mix
// co-located and equidistant radios, delay overrides of zero, shorter
// than, equal to and longer than the airtime and negative, interceptor
// drops, overlapping transmissions, jamming bursts and both deciders.
// Every txDone, data reception begin and end and delivery must dispatch
// in the same order at the same time and Executed count, every delivery
// must carry the same frame, power and SINR bits, and the medium stats
// and every MAC's stats must match.
func FuzzFanoutOrder(f *testing.F) {
	for _, seed := range fanoutSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, _ := runFanoutMedium(t, data, false)
		want, _ := runFanoutMedium(t, data, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batched fan-out diverged from per-event scheduling:\nbatched   %+v\nreference %+v", got, want)
		}
	})
}

// TestFanoutSeedsSort keeps the seed corpus honest: the seeds with
// clamped negative delays and long delay overrides must take the general
// sort on the production medium, or FuzzFanoutOrder compares only the
// usual case; the reference medium never sorts.
func TestFanoutSeedsSort(t *testing.T) {
	sorted := 0
	for i, seed := range fanoutSeeds {
		if _, ok := runFanoutMedium(t, seed, false); ok {
			sorted++
		}
		if _, ok := runFanoutMedium(t, seed, true); ok {
			t.Errorf("seed %d: the reference medium took the general sort", i)
		}
	}
	if sorted < 3 {
		t.Errorf("%d of %d seeds take the general sort, want at least 3", sorted, len(fanoutSeeds))
	}
}

// fanoutSeeds seed FuzzFanoutOrder (testdata/fuzz holds more).
var fanoutSeeds = [][]byte{
	// Co-located radios without an interceptor: delay 0, so every end
	// ties with txDone.
	{0, 2, 0, 1, 0, 0, 1, 3, 0, 0, 0, 1, 0, 0},
	// Equidistant receivers on both sides of a sender, several sends.
	{0, 3, 0, 2, 3, 0, 1, 4, 0, 1, 0, 2, 0, 3, 1, 0, 4},
	// A mix of verdict codes across overlapping transmissions.
	{0, 5, 0, 1, 2, 7, 8, 9, 0xff, 1, 0, 1, 2, 3, 4, 5, 6, 7, 1, 6, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 1, 0, 4, 0, 0},
	// Delay overrides with a jammer and the probabilistic decider.
	{3, 4, 0, 2, 7, 1, 13, 4, 6, 7, 6, 4, 7, 6, 3, 0, 2, 2, 5, 3, 5, 4, 0, 0, 1, 2, 0, 2, 3, 1, 1},
	// Co-located radios whose first link gets a negative delay longer
	// than the airtime: both its begin and its end clamp to Now.
	[]byte("0000\xff"),
	// A begin that ties with txDone: the delay override equals the
	// frame's airtime.
	[]byte("000010\"00000120000020A"),
	// Two links with different negative delays shorter than the airtime:
	// both begins clamp to Now and must keep registration order.
	[]byte("090000098"),
}
