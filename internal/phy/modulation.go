package phy

import (
	"fmt"
	"math"
)

// MCS identifies an 802.11p modulation-and-coding scheme on the 10 MHz
// DSRC channel.
type MCS int

// The eight 802.11p rates. The default beacon rate in Veins is QPSK 1/2
// (6 Mbit/s).
const (
	MCSBpskR12  MCS = iota + 1 // BPSK 1/2, 3 Mbit/s
	MCSBpskR34                 // BPSK 3/4, 4.5 Mbit/s
	MCSQpskR12                 // QPSK 1/2, 6 Mbit/s
	MCSQpskR34                 // QPSK 3/4, 9 Mbit/s
	MCSQam16R12                // 16-QAM 1/2, 12 Mbit/s
	MCSQam16R34                // 16-QAM 3/4, 18 Mbit/s
	MCSQam64R23                // 64-QAM 2/3, 24 Mbit/s
	MCSQam64R34                // 64-QAM 3/4, 27 Mbit/s
)

// mcsInfo carries the static parameters of one scheme.
type mcsInfo struct {
	name        string
	bitrate     float64 // Mbit/s on a 10 MHz channel
	bitsPerSym  int     // data bits per OFDM symbol
	minSNRdB    float64 // decoding threshold used by the threshold decider
	constelBits int     // bits per modulation symbol (1 BPSK, 2 QPSK, ...)
}

// mcsTable is indexed by MCS; entry 0 is unused (MCS values start at 1).
// An array lookup replaces the map probe on every transmit (airtime) and
// reception (decoding threshold).
var mcsTable = [...]mcsInfo{
	MCSBpskR12:  {name: "BPSK-1/2", bitrate: 3, bitsPerSym: 24, minSNRdB: 1.0, constelBits: 1},
	MCSBpskR34:  {name: "BPSK-3/4", bitrate: 4.5, bitsPerSym: 36, minSNRdB: 2.0, constelBits: 1},
	MCSQpskR12:  {name: "QPSK-1/2", bitrate: 6, bitsPerSym: 48, minSNRdB: 3.0, constelBits: 2},
	MCSQpskR34:  {name: "QPSK-3/4", bitrate: 9, bitsPerSym: 72, minSNRdB: 5.0, constelBits: 2},
	MCSQam16R12: {name: "16QAM-1/2", bitrate: 12, bitsPerSym: 96, minSNRdB: 8.0, constelBits: 4},
	MCSQam16R34: {name: "16QAM-3/4", bitrate: 18, bitsPerSym: 144, minSNRdB: 11.0, constelBits: 4},
	MCSQam64R23: {name: "64QAM-2/3", bitrate: 24, bitsPerSym: 192, minSNRdB: 15.0, constelBits: 6},
	MCSQam64R34: {name: "64QAM-3/4", bitrate: 27, bitsPerSym: 216, minSNRdB: 17.0, constelBits: 6},
}

// Valid reports whether the MCS is one of the defined schemes.
func (m MCS) Valid() bool { return m >= MCSBpskR12 && m <= MCSQam64R34 }

// info returns the scheme's parameters, falling back to QPSK 1/2 (the
// Veins default) for an undefined MCS.
func (m MCS) info() *mcsInfo {
	if !m.Valid() {
		m = MCSQpskR12
	}
	return &mcsTable[m]
}

// String implements fmt.Stringer.
func (m MCS) String() string {
	if m.Valid() {
		return mcsTable[m].name
	}
	return fmt.Sprintf("MCS(%d)", int(m))
}

// BitrateMbps returns the data rate in Mbit/s (10 MHz channel).
func (m MCS) BitrateMbps() float64 { return m.info().bitrate }

// MinSNRdB returns the decoding SNR threshold used by the deterministic
// decider mode.
func (m MCS) MinSNRdB() float64 { return m.info().minSNRdB }

// 802.11p OFDM timing on a 10 MHz channel: 8 us per symbol, 40 us
// preamble + signal field.
const (
	symbolDurationUs   = 8.0
	preambleDurationUs = 40.0
	// serviceAndTailBits are the PLCP SERVICE (16) + tail (6) bits added
	// to the PSDU before symbol packing.
	serviceAndTailBits = 22
)

// FrameAirtimeUs returns the on-air duration of a frame with the given
// PSDU size in bits, in microseconds.
func (m MCS) FrameAirtimeUs(psduBits int) float64 {
	info := m.info()
	if psduBits < 0 {
		psduBits = 0
	}
	symbols := math.Ceil(float64(psduBits+serviceAndTailBits) / float64(info.bitsPerSym))
	return preambleDurationUs + float64(symbols*symbolDurationUs)
}

// BitErrorRate returns the post-coding bit error probability at the given
// SNR (dB) for this scheme. It uses the standard uncoded AWGN expressions
// (BPSK/QPSK/M-QAM over erfc) with a coding gain per code rate — the same
// family of curves Veins' NIST decider tabulates. The approximation only
// needs to be faithful near the decoding cliff, which it is.
func (m MCS) BitErrorRate(snrDB float64) float64 {
	info := m.info()
	// Coding gain: rate-1/2 convolutional ~5.1 dB, 2/3 ~4.2 dB, 3/4 ~3.8 dB.
	var gain float64
	switch info.bitrate {
	case 3, 6, 12:
		gain = 5.1
	case 24:
		gain = 4.2
	default:
		gain = 3.8
	}
	snr := DBToLinear(snrDB + gain)
	var ber float64
	switch info.constelBits {
	case 1: // BPSK
		ber = 0.5 * math.Erfc(math.Sqrt(snr))
	case 2: // QPSK: same per-bit error as BPSK at equal Eb/N0; SNR here is per-symbol
		ber = 0.5 * math.Erfc(math.Sqrt(snr/2))
	case 4: // 16-QAM
		ber = (3.0 / 8.0) * math.Erfc(math.Sqrt(snr/10))
	default: // 64-QAM
		ber = (7.0 / 24.0) * math.Erfc(math.Sqrt(snr/42))
	}
	return math.Min(math.Max(ber, 0), 0.5)
}

// PacketErrorRate returns the probability that a frame of psduBits bits
// has at least one residual bit error at the given SNR.
func (m MCS) PacketErrorRate(snrDB float64, psduBits int) float64 {
	if psduBits <= 0 {
		return 0
	}
	ber := m.BitErrorRate(snrDB)
	return 1 - math.Pow(1-ber, float64(psduBits))
}
