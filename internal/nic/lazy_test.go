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

// lazyRecord is one observation of a medium run: a delivery to a handler
// (kind "rx", with the frame and the power and SINR bits), a mid-run
// probe of the medium and one MAC ("probe"), or a pause of the kernel
// ("pause", with every MAC's stats, Executed and the run's error).
type lazyRecord struct {
	kind     string
	radio    string
	now      des.Time
	src      string
	seq      uint64
	power    uint64
	sinr     uint64
	stats    Stats
	mac      []mac.Stats
	executed uint64
	err      string
}

// lazyTrace is everything a lazy-medium run exposes, and how many of its
// events were settled off the kernel queue (not compared).
type lazyTrace struct {
	records []lazyRecord
	settled uint64
}

// lazyFilters are the receive filters a fuzzed radio may install: none,
// one rejecting every third sequence number, and one rejecting all.
var lazyFilters = [...]RxFilter{
	nil,
	func(f *mac.Frame) bool { return f.Seq%3 != 1 },
	func(*mac.Frame) bool { return false },
}

// runLazyMedium decodes a random medium from data and runs it for 40 ms,
// with a checkpoint taken mid-run and restored after the run, which then
// runs again to 40 ms. eager selects the reference medium, which queues
// every reception into the kernel. The media mix handlers with accepting
// and rejecting filters and nil handlers, co-located radios whose
// receptions tie, overlapping sends that leave MACs non-idle while lazy
// receptions wait, interceptor drops and delay overrides, jamming bursts,
// both deciders, mid-run probes of Stats and MAC stats, an interrupt
// poll cadence and event budgets set from the start or only before the
// restore.
func runLazyMedium(t testing.TB, data []byte, eager bool) lazyTrace {
	in := &fanoutBytes{data: data}
	k := des.NewKernel()
	ch := phy.DefaultChannelConfig()
	if in.next()%4 == 3 {
		ch.Decider = phy.DeciderProbabilistic
	}
	air, err := NewAir(Config{
		Kernel:   k,
		Channel:  ch,
		Schedule: wave1609.NewSchedule(wave1609.AccessContinuous),
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("NewAir: %v", err)
	}
	air.eager = eager

	var tr lazyTrace
	n := 2 + in.next()%6
	radios := make([]*Radio, n)
	for i := range radios {
		p := geo.Vec{X: fanoutPositions[in.next()%len(fanoutPositions)]}
		id := scratchID(i)
		kind := in.next() % 4
		var handler RxHandler
		var filter RxFilter
		if kind < 3 {
			filter = lazyFilters[kind]
			handler = func(f *mac.Frame, m RxMeta) {
				if filter != nil && !filter(f) {
					return
				}
				tr.records = append(tr.records, lazyRecord{
					kind: "rx", radio: id, now: k.Now(), src: f.Src, seq: f.Seq,
					power: math.Float64bits(m.RxPowerDBm()), sinr: math.Float64bits(m.SINRdB()),
				})
			}
		}
		r, err := air.AddRadio(id, func() geo.Vec { return p }, handler)
		if err != nil {
			t.Fatalf("AddRadio: %v", err)
		}
		r.SetFilter(filter)
		radios[i] = r
	}
	macStats := func() []mac.Stats {
		out := make([]mac.Stats, n)
		for i, r := range radios {
			out[i] = r.MAC().Stats()
		}
		return out
	}

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
		period := burst * des.Time(1+in.next()%3)
		j, err := air.AddJammer("j", func() geo.Vec { return p }, power, burst, period)
		if err != nil {
			t.Fatalf("AddJammer: %v", err)
		}
		on := des.Time(in.next()%40) * des.Millisecond / 2
		off := on + des.Time(1+in.next()%8)*des.Millisecond
		k.ScheduleAt(on, j.Start)
		k.ScheduleAt(off, j.Stop)
	}

	sends := 1 + in.next()%16
	for s := 0; s < sends; s++ {
		r := radios[in.next()%n]
		at := des.Time(in.next()%64) * 20 * des.Microsecond * des.Time(1+in.next()%3)
		bits := 100 + 50*(in.next()%6)
		seq := uint64(s + 1)
		k.ScheduleAt(at, func() {
			if err := r.Send("x", bits, mac.ACVideo, seq); err != nil {
				t.Errorf("Send: %v", err)
			}
		})
	}

	probes := in.next() % 4
	for p := 0; p < probes; p++ {
		r := radios[in.next()%n]
		at := des.Time(in.next()%200) * 200 * des.Microsecond
		k.ScheduleAt(at, func() {
			tr.records = append(tr.records, lazyRecord{kind: "probe", radio: r.id, now: k.Now(),
				stats: air.Stats(), mac: []mac.Stats{r.MAC().Stats()}})
		})
	}

	budgetMode := in.next() % 4
	every := uint64(1 + in.next()%16)
	budget := uint64(50 + 40*in.next())
	if budgetMode > 0 {
		k.SetInterruptCheck(every, func() error { return nil })
	}
	if budgetMode == 2 {
		k.SetEventBudget(budget)
	}

	pause := func(limit des.Time) {
		err := k.RunUntil(limit)
		rec := lazyRecord{kind: "pause", now: k.Now(), stats: air.Stats(), mac: macStats(), executed: k.Executed()}
		if err != nil {
			rec.err = err.Error()
		}
		tr.records = append(tr.records, rec)
	}
	mid := des.Time(1+in.next()%39) * des.Millisecond
	pause(mid)
	var ks des.KernelState
	var as AirState
	k.Snapshot(&ks)
	if err := air.SaveState(&as); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	pause(40 * des.Millisecond)
	if budgetMode == 3 {
		k.SetEventBudget(k.Executed() - k.Executed()/4 + 1)
	}
	if err := k.Restore(&ks); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := air.LoadState(&as); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	pause(40 * des.Millisecond)
	tr.settled = k.Settled()
	return tr
}

// FuzzLazyReception runs one random medium twice: through the lazy
// medium, which keeps receptions no handler reads off the kernel queue
// at idle radios, and through the eager reference, which queues them
// all. Every handler call must come in the same order at the same time
// with the same frame, power and SINR bits, and every mid-run probe and
// pause must see the same medium stats, MAC stats, Executed count and
// run error, before and after the restore.
func FuzzLazyReception(f *testing.F) {
	for _, seed := range lazySeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := runLazyMedium(t, data, false)
		want := runLazyMedium(t, data, true)
		if !reflect.DeepEqual(got.records, want.records) {
			t.Fatalf("lazy medium diverged from the eager reference:\nlazy  %+v\neager %+v", got.records, want.records)
		}
	})
}

// lazySeeds seed FuzzLazyReception (testdata/fuzz holds more).
var lazySeeds = [][]byte{
	// Four co-located radios, each kind of receiver, one sender: ties,
	// rejecting filters and a nil handler.
	{0, 2, 0, 0, 0, 1, 0, 2, 0, 0, 0, 4, 0, 0, 0, 0, 1, 0, 0, 1, 0, 2, 0, 3, 0, 0, 2, 0, 0},
	// A jammer next to idle radios, overlapping sends and probes.
	{0, 5, 2, 3, 3, 3, 4, 0, 6, 1, 0, 0, 2, 4, 1, 3, 8, 15, 0, 10, 2, 2, 20, 1, 1, 11, 0, 3, 3, 9, 1, 50, 2, 70, 0, 0, 7},
	// Delay overrides and drops, an interrupt poll cadence.
	{0, 4, 1, 1, 3, 2, 0, 0, 5, 0, 9, 3, 4, 7, 2, 6, 8, 1, 0, 11, 1, 0, 5, 2, 0, 9, 3, 1, 14, 0, 1, 2, 1, 6, 1},
	// An event budget set before the restore: lazy receptions captured in
	// flight go back into the kernel.
	{0, 3, 2, 3, 5, 3, 6, 3, 0, 0, 2, 1, 1, 1, 3, 1, 7, 0, 2, 2, 5, 2, 9, 1, 0, 3, 12, 1},
	// The probabilistic decider: elision off.
	{3, 3, 0, 0, 2, 1, 3, 2, 0, 1, 0, 5, 0, 1, 0, 1, 2, 0, 3, 1, 0, 1, 0, 1, 20},
}

// TestLazySeedsElide keeps the seed corpus honest: most seeds must
// settle receptions off the queue, or the fuzz target compares two eager
// runs.
func TestLazySeedsElide(t *testing.T) {
	elided := 0
	for i, seed := range lazySeeds {
		if tr := runLazyMedium(t, seed, false); tr.settled > 0 {
			elided++
		} else {
			t.Logf("seed %d settles nothing", i)
		}
		if tr := runLazyMedium(t, seed, true); tr.settled != 0 {
			t.Errorf("seed %d: the eager reference settled %d events", i, tr.settled)
		}
	}
	if elided < len(lazySeeds)-1 {
		t.Errorf("%d of %d seeds settle receptions off the queue", elided, len(lazySeeds))
	}
}

// TestRecycledReceptionHoldsNoReferences: a finished reception goes back
// to the freelist without its payload, node IDs or radio, whether it
// finished as an event or settled off the queue.
func TestRecycledReceptionHoldsNoReferences(t *testing.T) {
	for _, eager := range []bool{true, false} {
		var rx []rxRecord
		k, air, radios := lineNet(t, phy.DefaultChannelConfig(), []string{"a", "b", "c"}, []float64{0, 10, 20}, &rx)
		air.eager = eager
		radios[2].SetFilter(func(*mac.Frame) bool { return false })
		if err := radios[0].Send("payload", 200, mac.ACVideo, 1); err != nil {
			t.Fatal(err)
		}
		if err := k.RunUntil(des.Second); err != nil {
			t.Fatal(err)
		}
		if len(air.recFree) != len(air.allRecs) || len(air.allRecs) != 2 {
			t.Fatalf("eager %v: %d of %d receptions free, want 2 of 2", eager, len(air.recFree), len(air.allRecs))
		}
		for _, rec := range air.recFree {
			f := rec.frame
			if f.Payload != nil || f.Src != "" || f.Beacon.Source != "" || f.Beacon.PlatoonID != "" || rec.dst != nil {
				t.Errorf("eager %v: recycled reception holds payload %v, src %q, beacon %q/%q, radio %v",
					eager, f.Payload, f.Src, f.Beacon.Source, f.Beacon.PlatoonID, rec.dst)
			}
		}
		if got := k.Settled() > 0; got == eager {
			t.Errorf("eager %v: %d events settled", eager, k.Settled())
		}
	}
}

// TestLazyBeaconDeliveryZeroAllocs extends the zero-allocation pin to
// receptions kept off the queue: receivers whose filters reject every
// beacon.
func TestLazyBeaconDeliveryZeroAllocs(t *testing.T) {
	for _, n := range []int{4, 16} {
		k, air, src := beaconNet(t, n)
		for _, r := range air.radios {
			if r != src {
				r.SetFilter(func(*mac.Frame) bool { return false })
			}
		}
		seq := uint64(0)
		for ; seq < 8; seq++ {
			deliverOneBeacon(t, k, src, seq)
		}
		allocs := testing.AllocsPerRun(100, func() {
			seq++
			deliverOneBeacon(t, k, src, seq)
		})
		if allocs != 0 {
			t.Errorf("%d radios: lazy beacon delivery allocs/op = %v, want 0", n, allocs)
		}
		if k.Settled() == 0 {
			t.Errorf("%d radios: no reception settled off the queue", n)
		}
	}
}

// TestElisionOffOncePassed: a reception starts at Now at the earliest, so
// the medium keeps none off the queue once the kernel's position has
// passed PriorityNormal at Now, where its key would be due on arrival: in
// a handler of a later priority, or at a pause.
func TestElisionOffOncePassed(t *testing.T) {
	var rx []rxRecord
	k, air, _ := lineNet(t, phy.DefaultChannelConfig(), []string{"a", "b"}, []float64{0, 10}, &rx)
	got := map[string]bool{}
	k.ScheduleAtPrio(des.Millisecond, des.PriorityFirst, func() { got["first"] = air.elides() })
	k.ScheduleAtPrio(des.Millisecond, des.PriorityNormal, func() { got["normal"] = air.elides() })
	k.ScheduleAtPrio(des.Millisecond, des.PriorityLast, func() { got["last"] = air.elides() })
	if err := k.RunUntil(des.Millisecond); err != nil {
		t.Fatal(err)
	}
	got["pause"] = air.elides()
	want := map[string]bool{"first": true, "normal": true, "last": false, "pause": false}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("elides = %v, want %v", got, want)
	}
}
