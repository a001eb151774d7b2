package phy

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"comfase/internal/sim/des"
)

func TestUnitConversionsRoundTrip(t *testing.T) {
	f := func(dbm float64) bool {
		dbm = math.Mod(dbm, 200)
		back := MilliwattToDBm(DBmToMilliwatt(dbm))
		return math.Abs(back-dbm) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if MilliwattToDBm(0) != math.Inf(-1) {
		t.Error("0 mW should be -inf dBm")
	}
	if DBmToMilliwatt(math.Inf(-1)) != 0 {
		t.Error("-inf dBm should be 0 mW")
	}
	if got := DBmToMilliwatt(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("0 dBm = %v mW, want 1", got)
	}
	if got := DBToLinear(3); math.Abs(got-1.9953) > 1e-3 {
		t.Errorf("3 dB = %v, want ~2", got)
	}
	if got := LinearToDB(100); math.Abs(got-20) > 1e-12 {
		t.Errorf("100x = %v dB, want 20", got)
	}
}

func TestFreeSpaceKnownValue(t *testing.T) {
	// FSPL at 100 m, 5.89 GHz: 20log10(4*pi*100*5.89e9/c) = ~87.8 dB.
	m := FreeSpace{}
	got := m.LossDB(100, 5.89e9)
	if math.Abs(got-87.84) > 0.1 {
		t.Errorf("FSPL(100m) = %v dB, want ~87.84", got)
	}
}

func TestFreeSpaceMonotoneInDistance(t *testing.T) {
	m := FreeSpace{}
	prev := math.Inf(-1)
	for d := 1.0; d <= 10000; d *= 1.7 {
		l := m.LossDB(d, 5.89e9)
		if l <= prev {
			t.Fatalf("free-space loss not monotone at %v m", d)
		}
		prev = l
	}
}

func TestFreeSpaceAlphaExponent(t *testing.T) {
	base := FreeSpace{Alpha: 2}
	steep := FreeSpace{Alpha: 3}
	// At 100 m the alpha-3 model loses an extra 10*log10(100) = 20 dB.
	diff := steep.LossDB(100, 5.89e9) - base.LossDB(100, 5.89e9)
	if math.Abs(diff-20) > 1e-9 {
		t.Errorf("alpha exponent delta = %v dB, want 20", diff)
	}
}

func TestFreeSpaceClampsBelowOneMetre(t *testing.T) {
	m := FreeSpace{}
	if m.LossDB(0.1, 5.89e9) != m.LossDB(1, 5.89e9) {
		t.Error("sub-metre distances should clamp to 1 m")
	}
}

func TestTwoRayApproachesFreeSpaceNearby(t *testing.T) {
	// At very short range the direct ray dominates: the models should be
	// within a few dB of each other.
	fs := FreeSpace{}
	tr := TwoRayInterference{}
	d := 10.0
	diff := math.Abs(fs.LossDB(d, 5.89e9) - tr.LossDB(d, 5.89e9))
	if diff > 6 {
		t.Errorf("two-ray deviates %v dB from free space at %v m", diff, d)
	}
}

func TestTwoRayShowsFadingStructure(t *testing.T) {
	// The hallmark of the two-ray model: non-monotone loss (fading dips)
	// at mid range, unlike free space.
	tr := TwoRayInterference{}
	monotone := true
	prev := tr.LossDB(10, 5.89e9)
	for d := 11.0; d < 500; d++ {
		l := tr.LossDB(d, 5.89e9)
		if l < prev {
			monotone = false
			break
		}
		prev = l
	}
	if monotone {
		t.Error("two-ray model shows no interference structure")
	}
}

func TestMCSValidAndString(t *testing.T) {
	if !MCSQpskR12.Valid() || MCS(0).Valid() || MCS(99).Valid() {
		t.Error("MCS validity wrong")
	}
	if MCSQpskR12.String() != "QPSK-1/2" {
		t.Errorf("String = %q", MCSQpskR12.String())
	}
	if MCS(99).String() == "" {
		t.Error("unknown MCS has empty String")
	}
	if MCSQpskR12.BitrateMbps() != 6 {
		t.Errorf("QPSK 1/2 bitrate = %v, want 6", MCSQpskR12.BitrateMbps())
	}

	// Every scheme's parameters, and the QPSK 1/2 fallback for undefined
	// values.
	want := []struct {
		m       MCS
		name    string
		bitrate float64
		minSNR  float64
		airtime float64 // FrameAirtimeUs(424)
	}{
		{MCSBpskR12, "BPSK-1/2", 3, 1, 192},
		{MCSBpskR34, "BPSK-3/4", 4.5, 2, 144},
		{MCSQpskR12, "QPSK-1/2", 6, 3, 120},
		{MCSQpskR34, "QPSK-3/4", 9, 5, 96},
		{MCSQam16R12, "16QAM-1/2", 12, 8, 80},
		{MCSQam16R34, "16QAM-3/4", 18, 11, 72},
		{MCSQam64R23, "64QAM-2/3", 24, 15, 64},
		{MCSQam64R34, "64QAM-3/4", 27, 17, 64},
	}
	for _, w := range want {
		if !w.m.Valid() || w.m.String() != w.name || w.m.BitrateMbps() != w.bitrate ||
			w.m.MinSNRdB() != w.minSNR || w.m.FrameAirtimeUs(424) != w.airtime {
			t.Errorf("%d: valid=%v %q %v Mbit/s, min SNR %v dB, airtime %v us; want %q %v Mbit/s, %v dB, %v us",
				int(w.m), w.m.Valid(), w.m.String(), w.m.BitrateMbps(), w.m.MinSNRdB(),
				w.m.FrameAirtimeUs(424), w.name, w.bitrate, w.minSNR, w.airtime)
		}
	}
	for _, m := range []MCS{-1, 0, 9, 99} {
		if m.Valid() {
			t.Errorf("MCS(%d) valid", int(m))
		}
		if got, want := m.String(), fmt.Sprintf("MCS(%d)", int(m)); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
		if m.BitrateMbps() != 6 || m.MinSNRdB() != 3 || m.FrameAirtimeUs(424) != 120 ||
			m.BitErrorRate(4) != MCSQpskR12.BitErrorRate(4) {
			t.Errorf("MCS(%d) does not fall back to QPSK 1/2", int(m))
		}
	}
}

func TestFrameAirtime(t *testing.T) {
	// 200-bit payload (the paper's packetSize) at QPSK 1/2:
	// ceil((200+22)/48) = 5 symbols -> 40 + 5*8 = 80 us.
	got := MCSQpskR12.FrameAirtimeUs(200)
	if got != 80 {
		t.Errorf("airtime(200 bits) = %v us, want 80", got)
	}
	if MCSQpskR12.FrameAirtimeUs(0) != 40+8 {
		t.Errorf("empty frame = %v us, want preamble + 1 symbol", MCSQpskR12.FrameAirtimeUs(0))
	}
	if MCSQpskR12.FrameAirtimeUs(-5) != MCSQpskR12.FrameAirtimeUs(0) {
		t.Error("negative bits not clamped")
	}
}

func TestFrameAirtimeFasterMCSShorter(t *testing.T) {
	slow := MCSBpskR12.FrameAirtimeUs(800)
	fast := MCSQam64R34.FrameAirtimeUs(800)
	if fast >= slow {
		t.Errorf("64QAM airtime %v >= BPSK airtime %v", fast, slow)
	}
}

func TestBitErrorRateMonotoneInSNR(t *testing.T) {
	for mcs := MCSBpskR12; mcs <= MCSQam64R34; mcs++ {
		prev := 1.0
		for snr := -10.0; snr <= 30; snr += 0.5 {
			ber := mcs.BitErrorRate(snr)
			if ber < 0 || ber > 0.5 {
				t.Fatalf("%v BER(%v) = %v out of range", mcs, snr, ber)
			}
			if ber > prev+1e-12 {
				t.Fatalf("%v BER not nonincreasing at %v dB", mcs, snr)
			}
			prev = ber
		}
	}
}

func TestBitErrorRateOrderingAcrossMCS(t *testing.T) {
	// At a fixed mid-range SNR, higher-order modulation must have a
	// higher error rate.
	snr := 8.0
	if MCSQpskR12.BitErrorRate(snr) >= MCSQam64R34.BitErrorRate(snr) {
		t.Error("QPSK 1/2 not more robust than 64QAM 3/4")
	}
}

func TestPacketErrorRate(t *testing.T) {
	// High SNR: essentially error-free for beacon-sized frames.
	if per := MCSQpskR12.PacketErrorRate(30, 400); per > 1e-6 {
		t.Errorf("PER at 30 dB = %v, want ~0", per)
	}
	// Very low SNR: certain loss.
	if per := MCSQpskR12.PacketErrorRate(-10, 400); per < 0.999 {
		t.Errorf("PER at -10 dB = %v, want ~1", per)
	}
	if MCSQpskR12.PacketErrorRate(10, 0) != 0 {
		t.Error("zero-length packet should have zero PER")
	}
	// PER grows with frame length.
	if MCSQpskR12.PacketErrorRate(7, 100) >= MCSQpskR12.PacketErrorRate(7, 10000) {
		t.Error("PER not increasing in frame length")
	}
}

func TestSpeedOfLightDelay(t *testing.T) {
	d := SpeedOfLightDelay{}
	// 300 m -> ~1.0007 us.
	got := d.Delay(300)
	want := des.FromSeconds(300 / SpeedOfLight)
	if got != want {
		t.Errorf("Delay(300) = %v, want %v", got, want)
	}
	if d.Delay(-5) != 0 {
		t.Error("negative distance should clamp to zero delay")
	}
	// Platoon-range delay is sub-microsecond.
	if d.Delay(50) > des.Microsecond {
		t.Errorf("Delay(50 m) = %v, want < 1 us", d.Delay(50))
	}
}

func TestFixedDelayIgnoresDistance(t *testing.T) {
	fd := FixedDelay{D: 2 * des.Second}
	if fd.Delay(1) != 2*des.Second || fd.Delay(1e6) != 2*des.Second {
		t.Error("FixedDelay not constant")
	}
}

func TestDefaultChannelConfigValid(t *testing.T) {
	cfg := DefaultChannelConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.MCS != MCSQpskR12 {
		t.Errorf("default MCS = %v, want QPSK 1/2", cfg.MCS)
	}
}

func TestChannelConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*ChannelConfig)
	}{
		{name: "nil pathloss", mutate: func(c *ChannelConfig) { c.PathLoss = nil }},
		{name: "nil delay", mutate: func(c *ChannelConfig) { c.Delay = nil }},
		{name: "zero freq", mutate: func(c *ChannelConfig) { c.FreqHz = 0 }},
		{name: "bad mcs", mutate: func(c *ChannelConfig) { c.MCS = 0 }},
		{name: "bad decider", mutate: func(c *ChannelConfig) { c.Decider = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultChannelConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestRxPowerAtPlatoonRangeDecodable(t *testing.T) {
	cfg := DefaultChannelConfig()
	// At 10 m (platoon spacing) the link budget is enormous.
	rx := cfg.RxPowerDBm(10)
	if rx < cfg.SensitivityDBm+40 {
		t.Errorf("rx power at 10 m = %v dBm, expected far above sensitivity", rx)
	}
	if snr := cfg.SNRdB(rx); snr < MCSQpskR12.MinSNRdB() {
		t.Errorf("SNR at 10 m = %v dB, expected decodable", snr)
	}
}

func TestSINRWithInterference(t *testing.T) {
	cfg := DefaultChannelConfig()
	rx := -60.0
	// No interference: SINR == SNR.
	if got, want := cfg.SINRdB(rx, math.Inf(-1)), cfg.SNRdB(rx); math.Abs(got-want) > 1e-9 {
		t.Errorf("SINR without interference = %v, want %v", got, want)
	}
	// Strong co-channel interferer dominates noise.
	withInt := cfg.SINRdB(rx, -70)
	if math.Abs(withInt-10) > 0.1 {
		t.Errorf("SINR with -70 dBm interferer = %v, want ~10 dB", withInt)
	}
	if withInt >= cfg.SNRdB(rx) {
		t.Error("interference did not reduce SINR")
	}
}

// freeSpaceFull is FreeSpace.LossDB without the alpha == 2 shortcut: the
// full expression, exponent term included.
func freeSpaceFull(distance, freqHz, alpha float64) float64 {
	d := math.Max(distance, 1)
	friis := 20 * math.Log10(4*math.Pi*d*freqHz/SpeedOfLight)
	return friis + 10*(alpha-2)*math.Log10(d)
}

// TestFreeSpaceAlpha2FastPathExact pins the alpha == 2 shortcut to the
// full expression bit for bit, from below the 1 m clamp through platoon
// range to 1e6 m, plus the non-finite distances where the skipped term
// is not +0.
func TestFreeSpaceAlpha2FastPathExact(t *testing.T) {
	dists := []float64{0.3, 1, 1.0000001, 3.7, 5, 8.25, 10, 12.5, 25, 33.3,
		50, 75, 100, 150, 333, 1000, 1400, 2300, 1e6,
		math.Inf(1), math.NaN()}
	for _, alpha := range []float64{0, 2} {
		m := FreeSpace{Alpha: alpha}
		for _, freq := range []float64{5.89e9, 5.9e9, 2.4e9} {
			for _, d := range dists {
				got := m.LossDB(d, freq)
				want := freeSpaceFull(d, freq, 2)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("Alpha=%v LossDB(%v, %v) = %v (%#x), full expression %v (%#x)",
						alpha, d, freq, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}
