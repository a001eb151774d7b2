package nic

import (
	"math"
	"reflect"
	"testing"

	"comfase/internal/geo"
	"comfase/internal/mac"
	"comfase/internal/phy"
	"comfase/internal/sim/des"
	"comfase/internal/sim/rng"
	"comfase/internal/wave1609"
)

// The tests in this file pin the delivery fast path against the
// computation it replaces, bit for bit (math.Float64bits). A rewrite that
// is only "equal up to rounding" must fail them.

// lineNet builds a medium with radios registered in the given order at
// the given X positions. Positions are read through xs on every call, so
// a test may move a radio between transmissions. Decoded frames at every
// radio are appended to *rx.
func lineNet(t *testing.T, ch phy.ChannelConfig, ids []string, xs []float64, rx *[]rxRecord) (*des.Kernel, *Air, []*Radio) {
	t.Helper()
	return lineNetConfig(t, Config{Channel: ch}, ids, xs, rx)
}

// lineNetConfig is lineNet on a medium configured by cfg, whose kernel,
// schedule and seed it sets.
func lineNetConfig(t *testing.T, cfg Config, ids []string, xs []float64, rx *[]rxRecord) (*des.Kernel, *Air, []*Radio) {
	t.Helper()
	k := des.NewKernel()
	cfg.Kernel = k
	cfg.Schedule = wave1609.NewSchedule(wave1609.AccessContinuous)
	cfg.Seed = 1
	air, err := NewAir(cfg)
	if err != nil {
		t.Fatalf("NewAir: %v", err)
	}
	radios := make([]*Radio, len(ids))
	for i, id := range ids {
		i := i
		r, err := air.AddRadio(id, func() geo.Vec { return geo.Vec{X: xs[i]} }, func(f *mac.Frame, m RxMeta) {
			*rx = append(*rx, record(k.Now(), f, m))
		})
		if err != nil {
			t.Fatalf("AddRadio(%s): %v", id, err)
		}
		radios[i] = r
	}
	return k, air, radios
}

// referenceSINR is the full SINR chain the interference-free shortcut
// stands in for.
func referenceSINR(ch phy.ChannelConfig, rxPowerDBm, interferenceMw float64) float64 {
	return ch.SINRdBWithNoiseMw(rxPowerDBm, phy.MilliwattToDBm(interferenceMw),
		phy.DBmToMilliwatt(ch.NoiseFloorDBm))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestInterferenceFreeSINRExact pins p - MilliwattToDBm(noiseMw) to the
// full chain with zero interference, over a sweep of powers and noise
// floors, and then through real deliveries at platoon-to-edge ranges.
func TestInterferenceFreeSINRExact(t *testing.T) {
	for nf := -110.0; nf <= -80; nf += 1.3 {
		ch := phy.DefaultChannelConfig()
		ch.NoiseFloorDBm = nf
		noiseDBm := phy.MilliwattToDBm(phy.DBmToMilliwatt(nf))
		for p := -120.0; p <= 30; p += 0.37 {
			if got, want := p-noiseDBm, referenceSINR(ch, p, 0); !sameBits(got, want) {
				t.Fatalf("noise %v dBm, power %v dBm: shortcut %v, full chain %v", nf, p, got, want)
			}
		}
	}

	// -101.3 dBm does not survive the dB -> mW -> dB round trip, so the
	// noise term must be MilliwattToDBm(noiseMw), not the configured floor.
	if phy.MilliwattToDBm(phy.DBmToMilliwatt(-101.3)) == -101.3 {
		t.Fatal("setup: -101.3 dBm round-trips exactly")
	}
	dists := []float64{1, 3.7, 10, 25, 55.5, 100, 333, 1000, 1400}
	for _, nf := range []float64{-98, -101.3, -104.5, -93.1} {
		ch := phy.DefaultChannelConfig()
		ch.NoiseFloorDBm = nf
		ids := []string{"s"}
		xs := []float64{0}
		for i, d := range dists {
			ids = append(ids, scratchID(i))
			xs = append(xs, d)
		}
		var rx []rxRecord
		k, _, radios := lineNet(t, ch, ids, xs, &rx)
		if err := radios[0].Send("x", 200, mac.ACVideo, 1); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(rx) != len(dists) {
			t.Fatalf("noise %v dBm: %d deliveries, want %d", nf, len(rx), len(dists))
		}
		for _, r := range rx {
			p := r.power
			if want := referenceSINR(ch, p, 0); !sameBits(r.sinr, want) {
				t.Errorf("noise %v dBm, power %v dBm: SINRdB %v, full chain %v", nf, p, r.sinr, want)
			}
		}
	}
}

// TestLazyMilliwattMatchesEager pins the deferred conversion to the eager
// DBmToMilliwatt it replaces, on first use and from the cache.
func TestLazyMilliwattMatchesEager(t *testing.T) {
	for p := -200.0; p <= 40; p += 0.173 {
		rec := &reception{powerDBm: p}
		want := phy.DBmToMilliwatt(p)
		if got := rec.mw(); !sameBits(got, want) || !rec.mwKnown {
			t.Fatalf("power %v dBm: lazy %v (known %v), eager %v", p, got, rec.mwKnown, want)
		}
		if got := rec.mw(); !sameBits(got, want) {
			t.Fatalf("power %v dBm: cached %v, eager %v", p, got, want)
		}
	}
}

// TestOverlapSINRExact is the decodable sibling of
// TestHiddenTerminalSINRCollision: a strong frame overlapped by two
// hidden senders is captured, and its SINR must equal the full chain
// over the interference summed in arrival order, with each interferer's
// milliwatts converted exactly as an eager conversion would.
func TestOverlapSINRExact(t *testing.T) {
	ch := phy.DefaultChannelConfig()
	// far1 and far2 sit on opposite sides, 4550 m apart: neither they nor
	// near sense one another, so all three transmit at once.
	ids := []string{"rx", "near", "far1", "far2"}
	xs := []float64{0, 10, 2250, -2300}
	var rx []rxRecord
	k, air, radios := lineNet(t, ch, ids, xs, &rx)
	for i, r := range radios[1:] {
		if err := r.Send("x", 200, mac.ACVideo, uint64(i+1)); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var got *rxRecord
	for i := range rx {
		if rx[i].f.Src == "near" && rx[i].power == ch.RxPowerDBm(10) {
			got = &rx[i]
		}
	}
	if got == nil {
		t.Fatalf("near frame not captured at rx: %+v", rx)
	}
	at := func(x float64) float64 { return ch.RxPowerDBm(geo.Vec{}.Dist(geo.Vec{X: x})) }
	// far1 (2250 m) arrives before far2 (2300 m).
	intMw := 0.0
	intMw += phy.DBmToMilliwatt(at(2250))
	intMw += phy.DBmToMilliwatt(at(2300))
	want := referenceSINR(ch, got.power, intMw)
	if !sameBits(got.sinr, want) {
		t.Errorf("overlap SINRdB %v (%#x), full chain %v (%#x)",
			got.sinr, math.Float64bits(got.sinr), want, math.Float64bits(want))
	}
	if sameBits(got.sinr, referenceSINR(ch, got.power, 0)) {
		t.Error("overlap path not taken: SINR equals the interference-free value")
	}
	known := 0
	for _, rec := range air.allRecs {
		if rec.mwKnown {
			known++
			if !sameBits(rec.powerMw, phy.DBmToMilliwatt(rec.powerDBm)) {
				t.Errorf("lazy mW %v for %v dBm, eager %v", rec.powerMw, rec.powerDBm, phy.DBmToMilliwatt(rec.powerDBm))
			}
		}
	}
	if known < 3 {
		t.Errorf("%d receptions converted to mW, want >= 3 overlapping", known)
	}
}

// TestSnapshotRestoresLazyMilliwatt checkpoints while a reception whose
// milliwatts are not yet known is on the air, lets that pooled object be
// reused and converted at a different power, restores, and lets a frame
// land on top of the restored reception. The overlapping frame's SINR
// reads the restored reception's milliwatts, so it and the delivery must
// be bit-identical to the uninterrupted run.
func TestSnapshotRestoresLazyMilliwatt(t *testing.T) {
	ch := phy.DefaultChannelConfig()
	// far's frame at rx is above sensitivity but below CCA, and near and
	// far cannot sense each other: near's strong frame overlaps far's.
	ids := []string{"rx", "far", "near"}
	xs := []float64{0, 1300, 10}
	var rx []rxRecord
	k, air, radios := lineNet(t, ch, ids, xs, &rx)
	rxRadio, far, near := radios[0], radios[1], radios[2]
	if err := far.Send("weak", 200, mac.ACVideo, 1); err != nil {
		t.Fatalf("Send: %v", err)
	}
	k.ScheduleAt(30*des.Microsecond, func() {
		if err := near.Send("strong", 200, mac.ACVideo, 2); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	for len(rxRadio.active) == 0 {
		if err := k.RunUntil(k.Now() + des.Microsecond); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
	}
	inFlight := rxRadio.active[0]
	if inFlight.mwKnown {
		t.Fatal("setup: reception converted before the checkpoint")
	}
	p0 := inFlight.powerDBm

	var ks des.KernelState
	var as AirState
	k.Snapshot(&ks)
	if err := air.SaveState(&as); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	mark := len(rx)

	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ref := append([]rxRecord(nil), rx[mark:]...)
	refStats := air.Stats()
	if len(ref) != 1 || ref[0].f.Src != "near" {
		t.Fatalf("setup: uninterrupted run delivered %+v, want near's frame", ref)
	}

	// Reuse every pooled reception at new powers, each one overlapped so
	// its milliwatts get converted.
	xs[1], xs[2] = 1250, 12
	for i, r := range radios {
		if err := r.Send("reuse", 200, mac.ACVideo, uint64(10+i)); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !inFlight.mwKnown || inFlight.powerDBm == p0 {
		t.Fatalf("setup: pooled reception not reused at a new power (known %v, %v dBm)",
			inFlight.mwKnown, inFlight.powerDBm)
	}

	xs[1], xs[2] = 1300, 10
	if err := k.Restore(&ks); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := air.LoadState(&as); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	rx = rx[:mark]
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := rx[mark:]
	if len(got) != len(ref) {
		t.Fatalf("restored run delivered %d frames, uninterrupted %d", len(got), len(ref))
	}
	for i := range got {
		g, w := got[i], ref[i]
		if g.at != w.at || g.f != w.f || g.meta.RxAt != w.meta.RxAt ||
			!sameBits(g.power, w.power) || !sameBits(g.sinr, w.sinr) {
			t.Errorf("restored delivery %+v, uninterrupted %+v", g, w)
		}
	}
	if s := air.Stats(); s != refStats {
		t.Errorf("restored stats %+v, uninterrupted %+v", s, refStats)
	}
}

// sameDeliveries reports whether two delivery sequences match in time,
// frame, and power and SINR bits.
func sameDeliveries(got, want []rxRecord) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.at != w.at || g.f != w.f || !sameBits(g.power, w.power) || !sameBits(g.sinr, w.sinr) {
			return false
		}
	}
	return true
}

// guardRun sends one frame from x = 0 to receivers at the given
// distances and returns the deliveries, the medium stats, every
// receiver's MAC stats and the medium. The reference medium has no guard
// distance: every reception computes its power at transmit time.
func guardRun(t *testing.T, ch phy.ChannelConfig, dists []float64, reference bool) ([]rxRecord, Stats, []mac.Stats, *Air) {
	t.Helper()
	ids := []string{"s"}
	xs := []float64{0}
	for i, d := range dists {
		ids = append(ids, scratchID(i))
		xs = append(xs, d)
	}
	var rx []rxRecord
	k, air, radios := lineNetConfig(t, Config{Channel: ch, Reference: reference}, ids, xs, &rx)
	if err := radios[0].Send("x", 200, mac.ACVideo, 1); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var ms []mac.Stats
	for _, r := range radios {
		ms = append(ms, r.MAC().Stats())
	}
	return rx, air.Stats(), ms, air
}

// TestGuardDistanceMatchesEager sweeps receivers across the guard
// distance for a grid of noise floors, transmit powers, CCA and
// sensitivity thresholds, MCSs, frequencies and path-loss exponents.
// Every decision, stat and RxMeta bit must equal the reference medium's,
// and the receptions inside the guard must really have been deferred.
func TestGuardDistanceMatchesEager(t *testing.T) {
	type thresholds struct{ cca, sens float64 }
	guarded := 0
	for _, nf := range []float64{-98, -101.3, -110, -90} {
		for _, tx := range []float64{23, 10, 33, 0} {
			for _, th := range []thresholds{{-85, -89}, {-95, -80}, {-70, -92}} {
				for _, mcs := range []phy.MCS{phy.MCSQpskR12, phy.MCSBpskR12, phy.MCSQam64R34} {
					for _, freq := range []float64{5.89e9, 5.9e9, 2.4e9} {
						for _, alpha := range []float64{2, 2.7} {
							ch := phy.DefaultChannelConfig()
							ch.NoiseFloorDBm, ch.TxPowerDBm = nf, tx
							ch.CCAThresholdDBm, ch.SensitivityDBm = th.cca, th.sens
							ch.MCS, ch.FreqHz, ch.PathLoss = mcs, freq, phy.FreeSpace{Alpha: alpha}
							noiseDBm := phy.MilliwattToDBm(phy.DBmToMilliwatt(nf))
							g := guardDistance(ch, noiseDBm)
							if g < 0 {
								t.Fatalf("%+v: guard off", ch)
							}
							guarded++
							floor := math.Max(math.Max(th.cca, th.sens), mcs.MinSNRdB()+noiseDBm) + guardMarginDB
							if p := ch.RxPowerDBm(g); p < floor-1e-9 {
								t.Fatalf("%+v: power %v dBm at the guard %v m, floor %v", ch, p, g, floor)
							}
							if p := ch.RxPowerDBm(g * (1 + 1e-6)); p >= floor {
								t.Fatalf("%+v: power %v dBm beyond the guard %v m clears floor %v", ch, p, g, floor)
							}
							var dists []float64
							for _, f := range []float64{0, 0.25, 0.5, 0.9, 0.999999, 1, 1.000001, 1.1, 1.5, 2, 4} {
								dists = append(dists, f*g)
							}
							got, gotStats, gotMAC, _ := guardRun(t, ch, dists, false)
							want, wantStats, wantMAC, _ := guardRun(t, ch, dists, true)
							if gotStats != wantStats || !reflect.DeepEqual(gotMAC, wantMAC) || !sameDeliveries(got, want) {
								t.Fatalf("%+v: deliveries %+v, stats %+v, MAC %+v;\neager %+v, stats %+v, MAC %+v",
									ch, got, gotStats, gotMAC, want, wantStats, wantMAC)
							}
							deferred := 0
							for i := range got {
								if want[i].deferred {
									t.Fatalf("%+v: eager reception deferred", ch)
								}
								if got[i].deferred {
									deferred++
								}
							}
							// Distances 0 .. 1*g lie inside the guard.
							if deferred < 6 {
								t.Fatalf("%+v: %d deferred deliveries, want >= 6", ch, deferred)
							}
						}
					}
				}
			}
		}
	}
	if guarded == 0 {
		t.Fatal("no configuration had a guard")
	}
}

// TestGuardDistanceOff pins the eager path where the guard cannot hold:
// a path loss without a closed-form inverse, fading, the probabilistic
// decider, a guard below the 1 m clamp and non-finite thresholds. No
// reception may be deferred, and deliveries must carry the eager bits.
func TestGuardDistanceOff(t *testing.T) {
	cases := map[string]func(*phy.ChannelConfig){
		"two-ray": func(c *phy.ChannelConfig) { c.PathLoss = phy.TwoRayInterference{} },
		"nakagami": func(c *phy.ChannelConfig) {
			c.Fading = phy.NewNakagamiFading(rng.New(1, "fading"))
		},
		"probabilistic":     func(c *phy.ChannelConfig) { c.Decider = phy.DeciderProbabilistic },
		"below 1 m":         func(c *phy.ChannelConfig) { c.TxPowerDBm = -60 },
		"infinite sens":     func(c *phy.ChannelConfig) { c.SensitivityDBm = math.Inf(1) },
		"NaN CCA":           func(c *phy.ChannelConfig) { c.CCAThresholdDBm = math.NaN() },
		"infinite noise":    func(c *phy.ChannelConfig) { c.NoiseFloorDBm = math.Inf(1) },
		"infinite tx power": func(c *phy.ChannelConfig) { c.TxPowerDBm = math.Inf(1) },
	}
	for name, mod := range cases {
		ch := phy.DefaultChannelConfig()
		mod(&ch)
		dists := []float64{0, 0.5, 1, 10, 100, 500}
		got, gotStats, _, air := guardRun(t, ch, dists, false)
		if air.guardM != -1 {
			t.Errorf("%s: guard %v m, want off", name, air.guardM)
		}
		for _, rec := range air.allRecs {
			if rec.deferred {
				t.Errorf("%s: reception deferred", name)
			}
		}
		if ch.Fading != nil {
			continue // the fading draws differ between two media
		}
		for _, r := range got {
			if r.deferred {
				t.Errorf("%s: delivery deferred", name)
			}
		}
		if ch.Decider == phy.DeciderThreshold {
			want, wantStats, _, _ := guardRun(t, ch, dists, true)
			if gotStats != wantStats || !sameDeliveries(got, want) {
				t.Errorf("%s: deliveries %+v stats %+v, eager %+v stats %+v", name, got, gotStats, want, wantStats)
			}
		}
	}
}

// TestReceptionStateMirrorsReception pins the checkpoint to the
// reception's shape: every reception field must have a receptionState
// field of the same name and type, except the receiver (captured as a
// radio index), the handler closure (bound once per pooled object) and
// the registry slot. A field added to reception without a twin would leave
// in-flight receptions half restored at a checkpoint.
func TestReceptionStateMirrorsReception(t *testing.T) {
	rec := reflect.TypeOf(reception{})
	st := reflect.TypeOf(receptionState{})
	skip := map[string]bool{"dst": true, "fn": true, "idx": true}
	for i := 0; i < rec.NumField(); i++ {
		f := rec.Field(i)
		if skip[f.Name] {
			continue
		}
		twin, ok := st.FieldByName(f.Name)
		if !ok {
			t.Errorf("reception.%s has no receptionState twin", f.Name)
		} else if twin.Type != f.Type {
			t.Errorf("reception.%s is %v, its receptionState twin %v", f.Name, f.Type, twin.Type)
		}
	}
	if d, ok := st.FieldByName("dst"); !ok || d.Type.Kind() != reflect.Int32 {
		t.Error("receptionState.dst must capture the receiver as a radio index")
	}
}

// TestSnapshotRestoresDeferredPower checkpoints while a reception inside
// the guard distance is on the air with its power still deferred, lets
// the run finish (the handler reads the power), reuses that pooled object
// as an eager reception at another power, restores, and replays. The
// replay must compute the deferred power again, bit for bit.
func TestSnapshotRestoresDeferredPower(t *testing.T) {
	ch := phy.DefaultChannelConfig()
	ids := []string{"rx", "near"}
	xs := []float64{0, 10}
	var rx []rxRecord
	k, air, radios := lineNet(t, ch, ids, xs, &rx)
	rxRadio, near := radios[0], radios[1]
	if err := near.Send("x", 200, mac.ACVideo, 1); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for len(rxRadio.active) == 0 {
		if err := k.RunUntil(k.Now() + des.Microsecond); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
	}
	inFlight := rxRadio.active[0]
	if !inFlight.deferred {
		t.Fatal("setup: reception inside the guard not deferred")
	}

	var ks des.KernelState
	var as AirState
	k.Snapshot(&ks)
	if err := air.SaveState(&as); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	mark := len(rx)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ref := append([]rxRecord(nil), rx[mark:]...)
	refStats := air.Stats()
	if len(ref) != 1 || !ref[0].deferred || !sameBits(ref[0].power, ch.RxPowerDBm(10)) {
		t.Fatalf("setup: uninterrupted run delivered %+v, want one deferred frame at %v dBm", ref, ch.RxPowerDBm(10))
	}

	// Reuse the pooled reception outside the guard: eager, another power.
	xs[1] = 1200
	if err := near.Send("reuse", 200, mac.ACVideo, 2); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if inFlight.deferred || inFlight.powerDBm != ch.RxPowerDBm(1200) {
		t.Fatalf("setup: pooled reception not reused eagerly (deferred %v, %v dBm)", inFlight.deferred, inFlight.powerDBm)
	}

	xs[1] = 10
	if err := k.Restore(&ks); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := air.LoadState(&as); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	rx = rx[:mark]
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := rx[mark:]; !sameDeliveries(got, ref) || !got[0].deferred {
		t.Errorf("restored run delivered %+v, uninterrupted %+v", got, ref)
	}
	if s := air.Stats(); s != refStats {
		t.Errorf("restored stats %+v, uninterrupted %+v", s, refStats)
	}
}

// horizonDelay delays every frame so that it begins at the horizon, and
// the frame for late a nanosecond after it.
type horizonDelay struct {
	horizon des.Time
	late    string
}

func (h horizonDelay) Intercept(now des.Time, _, dst string, _ mac.Frame) Verdict {
	d := h.horizon - now
	if dst == h.late {
		d += des.Nanosecond
	}
	return Verdict{OverrideDelay: true, Delay: d}
}

// TestHorizonBoundaryReception: a delayed reception whose begin lies
// exactly at the kernel's horizon still begins, raising carrier sense at
// its receiver, and one beginning a nanosecond later is never pooled or
// queued. Both count as delay-overridden.
func TestHorizonBoundaryReception(t *testing.T) {
	var rx []rxRecord
	k, air, radios := lineNet(t, phy.DefaultChannelConfig(), []string{"a", "b", "c"}, []float64{0, 10, 20}, &rx)
	const horizon = des.Second
	k.SetHorizon(horizon)
	air.SetInterceptor(horizonDelay{horizon: horizon, late: "c"})
	if err := radios[0].Send("x", 200, mac.ACVideo, 1); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	if !radios[1].MAC().Busy() || radios[2].MAC().Busy() {
		t.Errorf("carrier sense at the horizon: b %v, c %v; want b busy, c idle",
			radios[1].MAC().Busy(), radios[2].MAC().Busy())
	}
	if inUse := len(air.allRecs) - len(air.recFree); inUse != 1 {
		t.Errorf("%d receptions in use, want 1 (b's)", inUse)
	}
	if k.Pending() != 0 {
		t.Errorf("%d events pending at the horizon, want 0", k.Pending())
	}
	if st := air.Stats(); st.DelayOverridden != 2 || st.FramesSent != 1 {
		t.Errorf("stats %+v: want 1 frame sent, 2 delays overridden", st)
	}
}
