// Package nic assembles the per-vehicle network interface (EDCA MAC +
// 802.11p PHY + 1609.4 schedule) and the shared Air medium that couples
// them — the complete inter-vehicle communication model of the Veins
// substitute.
//
// Air is also ComFASE's injection point: every frame delivery passes
// through an optional Interceptor that can drop frames, override the
// channel's propagation delay (the paper's delay and DoS attack models,
// Table I) or falsify payloads before they reach the receiver. Swapping
// the interceptor is the Go equivalent of Algorithm 1's CommModelEditor.
package nic

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"comfase/internal/geo"
	"comfase/internal/mac"
	"comfase/internal/msg"
	"comfase/internal/phy"
	"comfase/internal/sim/des"
	"comfase/internal/sim/rng"
	"comfase/internal/wave1609"
)

// MACOverheadBits is the MAC header + FCS overhead added to every
// application payload (24-byte 802.11 header + 4-byte FCS).
const MACOverheadBits = (24 + 4) * 8

// RxMeta describes how a frame arrived at a receiver. Its methods read
// the medium's pooled reception: like the frame, they are valid only for
// the duration of the handler call.
type RxMeta struct {
	// Src is the transmitting node.
	Src string
	// SentAt is the transmission start time.
	SentAt des.Time
	// RxAt is the delivery time (end of reception).
	RxAt des.Time
	// PropDelay is the propagation delay applied to this link — the
	// attack-visible quantity.
	PropDelay des.Time

	rec *reception
}

// RxPowerDBm returns the received signal power.
func (m RxMeta) RxPowerDBm() float64 { return m.rec.power() }

// SINRdB returns the signal-to-interference-plus-noise ratio the decider
// judged the frame by.
func (m RxMeta) SINRdB() float64 { return m.rec.dst.air.sinr(m.rec) }

// RxHandler consumes successfully decoded frames. f points into the
// medium's pooled reception and is valid only for the duration of the
// call: a handler that keeps any part of the frame must copy it.
type RxHandler func(f *mac.Frame, meta RxMeta)

// Verdict is an Interceptor's decision about one frame delivery on one
// link.
type Verdict struct {
	// Drop discards the frame for this receiver.
	Drop bool
	// OverrideDelay, when true, replaces the channel's propagation delay
	// with Delay — the mechanism of the paper's delay/DoS attacks.
	OverrideDelay bool
	// Delay is the overriding propagation delay.
	Delay des.Time
	// OverrideBeacon, when true, replaces an inline beacon with Beacon
	// (falsification and sensor-fault models). It is ignored for frames
	// without an inline beacon.
	OverrideBeacon bool
	// Beacon is the overriding beacon.
	Beacon msg.Beacon
	// Payload, when non-nil, replaces the generic frame payload.
	Payload any
}

// Interceptor inspects every (transmitter, receiver) frame delivery while
// installed. It is called for each receiver in registration order, before
// any of the transmission's events are queued. Implementations are the
// ComFASE attack models. The frame is passed by value so the hot path
// never forces it onto the heap; implementations read f.Beacon/f.HasBeacon
// (or f.Payload for non-beacon traffic) and return overrides by value in
// the Verdict.
type Interceptor interface {
	// Intercept is called at transmission time for each receiver.
	Intercept(now des.Time, src, dst string, f mac.Frame) Verdict
}

// Stats counts medium-level events.
type Stats struct {
	// FramesSent counts transmissions started.
	FramesSent uint64
	// Deliveries counts successfully decoded frames.
	Deliveries uint64
	// DroppedBelowSensitivity counts receptions under the sensitivity
	// floor (they still contribute interference).
	DroppedBelowSensitivity uint64
	// DroppedSINR counts decoding failures.
	DroppedSINR uint64
	// DroppedHalfDuplex counts frames lost because the receiver was
	// transmitting.
	DroppedHalfDuplex uint64
	// DroppedOffChannel counts frames lost because the receiver was
	// tuned to the SCH (alternating 1609.4 access).
	DroppedOffChannel uint64
	// DroppedByInterceptor counts frames dropped by the attack model.
	DroppedByInterceptor uint64
	// DelayOverridden counts deliveries whose propagation delay the
	// attack model rewrote.
	DelayOverridden uint64
	// NoiseBursts counts jamming bursts radiated onto the medium.
	NoiseBursts uint64
}

// Config configures the shared medium.
type Config struct {
	// Kernel drives all radio events (required).
	Kernel *des.Kernel
	// Channel is the analog-channel model (required valid).
	Channel phy.ChannelConfig
	// Schedule is the 1609.4 channel-access schedule shared by all
	// radios.
	Schedule wave1609.Schedule
	// Seed derives the backoff and decider random streams.
	Seed uint64
}

// Air is the shared broadcast medium connecting all radios.
type Air struct {
	k     *des.Kernel
	cfg   phy.ChannelConfig
	sched wave1609.Schedule

	radios []*Radio
	byID   map[string]*Radio
	// spare holds radios detached by Reset, recycled by AddRadio so a
	// reused medium rebuilds its node set without reallocating radio/MAC
	// state.
	spare []*Radio

	interceptor Interceptor
	deciderRNG  *rng.Source
	seed        uint64

	// noiseMw caches DBmToMilliwatt(Channel.NoiseFloorDBm) — a pure
	// function of the configuration hoisted out of the per-delivery SINR
	// computation (bit-identical to converting on every call). noiseDBm
	// caches MilliwattToDBm(noiseMw), the noise term of the SINR of a
	// reception that saw no interference.
	noiseMw  float64
	noiseDBm float64
	// guardM is the guard distance (see guardDistance), or -1 when off: a
	// data frame received from at most this far has its power computed
	// only when something reads it (reception.power).
	guardM float64

	// airtimeFn is the bound airtime method, created once and shared by
	// every MAC so per-radio wiring does not allocate method values.
	airtimeFn func(int) des.Time
	// recFree is the reception freelist: finished receptions are recycled
	// here with their two scheduling closures intact, so steady-state
	// frame delivery allocates nothing.
	recFree []*reception
	// allRecs registers every reception ever allocated on this medium, in
	// creation order, and recIndex maps each back to its registry slot.
	// The registry is what lets a checkpoint capture in-flight receptions
	// by identity: kernel handlers hold pointers to specific reception
	// objects, so restore must rewind those objects' fields in place.
	allRecs  []*reception
	recIndex map[*reception]int32

	// links holds the receptions of the fan-out being queued, in the order
	// they were made; keys is the scratch list of its dispatch keys when
	// it needs a general sort (see queue).
	links []*reception
	keys  []fanKey
	// scheduleEach queues every fan-out event with its own ScheduleAt, in
	// the order the fan-out makes them: the reference FuzzFanoutOrder
	// checks the batched dispatch order against.
	scheduleEach bool

	stats Stats
}

// NewAir builds an empty medium.
func NewAir(cfg Config) (*Air, error) {
	a := &Air{byID: make(map[string]*Radio, 8)}
	a.airtimeFn = a.airtime
	if err := a.Reset(cfg); err != nil {
		return nil, err
	}
	return a, nil
}

// Reset reinitialises the medium for a new experiment: configuration
// replaced, interceptor removed, stats zeroed, decider stream rewound,
// and all registered radios detached into a spare pool that AddRadio
// recycles. A reset-and-rebuilt medium replays a freshly constructed one
// bit-for-bit; only the allocations are saved.
func (a *Air) Reset(cfg Config) error {
	if cfg.Kernel == nil {
		return errors.New("nic: Config.Kernel is required")
	}
	if err := cfg.Channel.Validate(); err != nil {
		return err
	}
	if err := cfg.Schedule.Validate(); err != nil {
		return err
	}
	a.k = cfg.Kernel
	a.cfg = cfg.Channel
	a.sched = cfg.Schedule
	a.seed = cfg.Seed
	a.noiseMw = phy.DBmToMilliwatt(cfg.Channel.NoiseFloorDBm)
	a.noiseDBm = phy.MilliwattToDBm(a.noiseMw)
	a.guardM = guardDistance(cfg.Channel, a.noiseDBm)
	a.interceptor = nil
	a.stats = Stats{}
	if a.deciderRNG == nil {
		a.deciderRNG = rng.New(cfg.Seed, "nic.decider")
	} else {
		a.deciderRNG.Reseed(cfg.Seed, "nic.decider")
	}
	for _, r := range a.radios {
		// Drop references into the previous experiment's object graph so
		// the pool does not pin it in memory.
		for i := range r.active {
			r.active[i] = nil
		}
		r.active = r.active[:0]
		r.pos = nil
		r.handler = nil
		a.spare = append(a.spare, r)
	}
	a.radios = a.radios[:0]
	clear(a.byID)
	// The kernel was reset before the medium, dropping the begin/end
	// events of every reception still in flight; none of them will ever
	// finish, so return the whole registry to the freelist.
	a.recFree = a.recFree[:0]
	for _, rec := range a.allRecs {
		rec.frame = mac.Frame{}
		rec.dst = nil
		a.recFree = append(a.recFree, rec)
	}
	return nil
}

// invertibleLoss is a path loss with a closed-form inverse, such as
// phy.FreeSpace.DistanceAt.
type invertibleLoss interface {
	DistanceAt(lossDB, freqHz float64) float64
}

var _ invertibleLoss = phy.FreeSpace{}

// guardMarginDB is how far above every reception threshold the guard
// distance keeps the received power: far more than the few ulps by which
// the closed-form inverse and the forward path loss may disagree.
const guardMarginDB = 1

// guardDistance returns the largest distance whose received power clears
// carrier sense, sensitivity and the threshold decider's interference-free
// decode (MinSNR over noiseDBm, the noise term of that decode) by
// guardMarginDB, or -1 when there is no such guard. Inside it those three
// outcomes are certain, so a reception's power is needed only by an
// overlap or a handler. It exists only for a path loss with a closed-form
// inverse, without fading (whose draws must stay in transmit order) and
// with the threshold decider (the probabilistic one reads the SINR of
// every frame). A guard below the 1 m clamp or not finite is off.
func guardDistance(c phy.ChannelConfig, noiseDBm float64) float64 {
	inv, ok := c.PathLoss.(invertibleLoss)
	if !ok || c.Fading != nil || c.Decider != phy.DeciderThreshold {
		return -1
	}
	floor := math.Max(math.Max(c.CCAThresholdDBm, c.SensitivityDBm), c.MCS.MinSNRdB()+noiseDBm)
	d := inv.DistanceAt(c.TxPowerDBm-(floor+guardMarginDB), c.FreqHz)
	if !(d >= 1) || math.IsInf(d, 1) {
		return -1
	}
	return d
}

// SetInterceptor installs (or, with nil, removes) the attack model. This
// is ComFASE's CommModelEditor: Algorithm 1 applies it at attackStartTime
// and removes it at attackEndTime.
func (a *Air) SetInterceptor(i Interceptor) { a.interceptor = i }

// Interceptor returns the installed attack model, if any.
func (a *Air) Interceptor() Interceptor { return a.interceptor }

// Stats returns a snapshot of the medium counters.
func (a *Air) Stats() Stats { return a.stats }

// Channel returns the analog channel configuration.
func (a *Air) Channel() phy.ChannelConfig { return a.cfg }

// Radio returns a registered radio by node ID.
func (a *Air) Radio(id string) (*Radio, error) {
	r, ok := a.byID[id]
	if !ok {
		return nil, fmt.Errorf("nic: unknown radio %q", id)
	}
	return r, nil
}

// AddRadio registers a node on the medium. pos must report the node's
// antenna position; handler receives decoded frames. Radios detached by
// a prior Reset are recycled: their MAC entity is reset in place and
// their backoff stream rewound, reproducing a fresh radio exactly.
func (a *Air) AddRadio(id string, pos func() geo.Vec, handler RxHandler) (*Radio, error) {
	if id == "" {
		return nil, errors.New("nic: radio ID must be non-empty")
	}
	if pos == nil {
		return nil, errors.New("nic: position provider is required")
	}
	if _, dup := a.byID[id]; dup {
		return nil, fmt.Errorf("nic: duplicate radio %q", id)
	}
	if n := len(a.spare); n > 0 {
		r := a.spare[n-1]
		a.spare = a.spare[:n-1]
		r.id = id
		r.pos = pos
		r.handler = handler
		r.txStart = 0
		r.txEnd = 0
		r.busy = 0
		r.macRNG.Reseed(a.seed, "nic.mac."+id)
		if err := r.mac.Reset(r.macConfig()); err != nil {
			return nil, err
		}
		a.radios = append(a.radios, r)
		a.byID[id] = r
		return r, nil
	}
	r := &Radio{
		id:      id,
		air:     a,
		pos:     pos,
		handler: handler,
		macRNG:  rng.New(a.seed, "nic.mac."+id),
	}
	r.transmitFn = r.transmitFrame
	m, err := mac.New(r.macConfig())
	if err != nil {
		return nil, err
	}
	r.mac = m
	r.txDoneFn = m.TxDone
	a.radios = append(a.radios, r)
	a.byID[id] = r
	return r, nil
}

// macConfig assembles the MAC wiring for this radio. The transmit hook
// is bound once per radio, whose identity is stable across pool reuse, so
// recycling a radio allocates no method value.
func (r *Radio) macConfig() mac.Config {
	a := r.air
	return mac.Config{
		Kernel:   a.k,
		RNG:      r.macRNG,
		Schedule: a.sched,
		Airtime:  a.airtimeFn,
		Transmit: r.transmitFn,
	}
}

// transmitFrame adapts Air.transmit to the MAC's Transmit hook.
func (r *Radio) transmitFrame(f mac.Frame) { r.air.transmit(r, f) }

// airtime converts PSDU bits to on-air time via the configured MCS.
func (a *Air) airtime(bits int) des.Time {
	us := a.cfg.MCS.FrameAirtimeUs(bits)
	return des.FromSeconds(us / 1e6)
}

// acquireReception takes a reception from the freelist (or allocates one
// with its scheduling closures) and binds it to a receiver. All payload
// fields are zeroed; the caller fills them in.
func (a *Air) acquireReception(dst *Radio) *reception {
	if n := len(a.recFree); n > 0 {
		rec := a.recFree[n-1]
		a.recFree = a.recFree[:n-1]
		*rec = reception{beginFn: rec.beginFn, endFn: rec.endFn, dst: dst}
		return rec
	}
	rec := &reception{dst: dst}
	rec.beginFn = func() { rec.dst.beginReception(rec) }
	rec.endFn = func() { rec.dst.air.finishReception(rec) }
	if a.recIndex == nil {
		a.recIndex = make(map[*reception]int32, 16)
	}
	a.recIndex[rec] = int32(len(a.allRecs))
	a.allRecs = append(a.allRecs, rec)
	return rec
}

// finishReception completes a reception at its receiver and recycles it.
func (a *Air) finishReception(rec *reception) {
	rec.dst.endReception(rec)
	rec.frame = mac.Frame{}
	rec.dst = nil
	a.recFree = append(a.recFree, rec)
}

// transmit fans a started transmission out to every other radio and
// queues the transmitter's txDone with every reception's begin and end
// (see queue).
func (a *Air) transmit(src *Radio, f mac.Frame) {
	now := a.k.Now()
	dur := a.airtime(f.Bits)
	a.stats.FramesSent++
	src.txStart = now
	src.txEnd = now.Add(dur)

	srcPos := src.pos()
	a.links = a.links[:0]
	for _, dst := range a.radios {
		if dst == src {
			continue
		}
		dist := srcPos.Dist(dst.pos())
		delay := a.cfg.Delay.Delay(dist)
		// The frame is written straight into the pooled reception; the
		// verdict's overrides are applied there in place.
		var rec *reception
		if a.interceptor != nil {
			v := a.interceptor.Intercept(now, src.id, dst.id, f)
			if v.Drop {
				a.stats.DroppedByInterceptor++
				continue
			}
			if v.OverrideDelay {
				delay = v.Delay
				a.stats.DelayOverridden++
			}
			rec = a.acquireReception(dst)
			rec.frame = f
			if v.OverrideBeacon && f.HasBeacon {
				rec.frame.Beacon = v.Beacon
			}
			if v.Payload != nil {
				rec.frame.Payload = v.Payload
			}
		} else {
			rec = a.acquireReception(dst)
			rec.frame = f
		}
		if dist <= a.guardM {
			rec.dist = dist
			rec.deferred = true
		} else {
			rxPower := a.cfg.RxPowerDBm(dist)
			if a.cfg.Fading != nil {
				rxPower += a.cfg.Fading.GainDB(dist)
			}
			rec.powerDBm = rxPower
		}
		rec.sentAt = now
		rec.start = now.Add(delay)
		rec.end = rec.start.Add(dur)
		rec.delay = delay
		a.links = append(a.links, rec)
	}
	a.queue(src.txDoneFn, src.txEnd, dur)
}

// queue enters a fan-out into the kernel as one batch: the receptions in
// a.links and, for a transmission, its txDone at txEnd (nil for a jamming
// burst). The reference order is the one a ScheduleAt per event took
// before batching: txDone, then each link's begin and end. BatchAt hands
// the batch consecutive sequence numbers in call order and no other event
// takes one in between, so against any other event a batch member orders
// by (time, priority) and the range alone, and among themselves by call
// order at equal times. Calling BatchAt in (time, reference index) order
// therefore dispatches every event exactly as the reference order would,
// and leaves EndBatch keys that are already sorted.
//
// In the usual case every link's delay is at least 0 and shorter than the
// airtime dur (a jamming burst's length), and no end time saturates. Then
// every begin precedes txDone, every end is at or after it, and the ends
// keep the begins' order, since end = start + dur. Sorting the links once
// by start, stably so that ties keep registration order, gives the whole
// order as a concatenation. Clamped negative delays and long delay
// overrides take the general sort of every key.
func (a *Air) queue(txDone des.Handler, txEnd, dur des.Time) {
	k := a.k
	if a.scheduleEach {
		if txDone != nil {
			k.ScheduleAt(txEnd, txDone)
		}
		for _, rec := range a.links {
			k.ScheduleAt(rec.start, rec.beginFn)
			k.ScheduleAt(rec.end, rec.endFn)
		}
		return
	}
	now := k.Now()
	ordered := true
	for _, rec := range a.links {
		if rec.start < now || rec.start-now >= dur || rec.end-rec.start != dur {
			ordered = false
			break
		}
	}
	k.BeginBatch()
	if ordered {
		sortLinks(a.links)
		for _, rec := range a.links {
			k.BatchAt(rec.start, des.PriorityNormal, rec.beginFn)
		}
		if txDone != nil {
			k.BatchAt(txEnd, des.PriorityNormal, txDone)
		}
		for _, rec := range a.links {
			k.BatchAt(rec.end, des.PriorityNormal, rec.endFn)
		}
	} else {
		a.queueSorted(txDone, txEnd)
	}
	k.EndBatch()
}

// sortLinks sorts receptions by start time with an insertion sort, which
// is stable (equal starts keep registration order) and costs one
// comparison per reception already in place. Seen from a radio inside a
// line of radios, the starts fall along the radios ahead of it and rise
// along those behind it. The strictly falling prefix is reversed first,
// which keeps it stable (it holds no equal starts) and leaves the sort
// only the interleaving of two rising runs to undo.
func sortLinks(s []*reception) {
	if len(s) < 2 {
		return
	}
	n := 1
	for n < len(s) && s[n].start < s[n-1].start {
		n++
	}
	slices.Reverse(s[:n])
	for i := n; i < len(s); i++ {
		x := s[i]
		j := i
		for ; j > 0 && x.start < s[j-1].start; j-- {
			s[j] = s[j-1]
		}
		s[j] = x
	}
}

// fanKey is one fan-out event's dispatch key: its kernel time, clamped to
// Now as the kernel clamps it, and its index in the reference order —
// txDone 0, then 2i+1 and 2i+2 for the begin and end of a.links[i].
type fanKey struct {
	at  des.Time
	ref int32
}

// queueSorted queues a fan-out outside the usual case into the open batch:
// every key appended in reference order, then stably sorted by time, so
// equal times keep reference order.
func (a *Air) queueSorted(txDone des.Handler, txEnd des.Time) {
	k := a.k
	now := k.Now()
	keys := a.keys[:0]
	if txDone != nil {
		keys = append(keys, fanKey{at: txEnd})
	}
	for i, rec := range a.links {
		ref := int32(2*i + 1)
		keys = append(keys, fanKey{at: max(rec.start, now), ref: ref}, fanKey{at: max(rec.end, now), ref: ref + 1})
	}
	slices.SortStableFunc(keys, func(x, y fanKey) int { return cmp.Compare(x.at, y.at) })
	for _, x := range keys {
		fn := txDone
		if x.ref > 0 {
			rec := a.links[(x.ref-1)/2]
			fn = rec.beginFn
			if x.ref%2 == 0 {
				fn = rec.endFn
			}
		}
		k.BatchAt(x.at, des.PriorityNormal, fn)
	}
	a.keys = keys
}

// reception is one frame arriving at one radio. Receptions are pooled on
// the Air: acquireReception recycles finished entries together with the
// two pre-bound scheduling closures, so the per-link delivery path is
// allocation-free in steady state.
type reception struct {
	frame  mac.Frame
	sentAt des.Time
	start  des.Time
	end    des.Time
	// powerDBm is the received power; powerMw caches its milliwatt
	// conversion once mwKnown is set. The conversion is the same pure
	// function whenever it runs, so it is deferred to the first overlap
	// that reads it (see mw): a reception that never overlaps another
	// never pays for it. Inside the guard distance the power itself is
	// deferred the same way: deferred marks a powerDBm not yet computed
	// from dist (see power).
	powerDBm float64
	powerMw  float64
	mwKnown  bool
	dist     float64
	deferred bool
	delay    des.Time
	// interferenceMw accumulates the power of every overlapping
	// reception at this radio (worst-case SINR, like Veins' per-segment
	// minimum).
	interferenceMw float64
	// sensedBusy records whether this reception raised carrier sense.
	sensedBusy bool
	// noise marks pure interference (jamming bursts): it contributes to
	// carrier sense and SINR but is never decoded.
	noise bool

	// dst is the receiving radio; beginFn/endFn are the kernel handlers
	// created once per pooled entry.
	dst     *Radio
	beginFn des.Handler
	endFn   des.Handler
}

// power returns the received power in dBm, computing a deferred one on
// first use with the same function transmit would have called.
func (rec *reception) power() float64 {
	if rec.deferred {
		rec.powerDBm = rec.dst.air.cfg.RxPowerDBm(rec.dist)
		rec.deferred = false
	}
	return rec.powerDBm
}

// mw returns the received power in milliwatts, converting on first use.
func (rec *reception) mw() float64 {
	if !rec.mwKnown {
		rec.powerMw = phy.DBmToMilliwatt(rec.power())
		rec.mwKnown = true
	}
	return rec.powerMw
}

// sinr returns the SINR the decider judges rec by. Without interference
// the SINR chain reduces exactly to p - noiseDBm: MilliwattToDBm(0) =
// -Inf, Pow(10, -Inf) = 0 and noiseMw + 0 = noiseMw, leaving
// MilliwattToDBm(noiseMw).
func (a *Air) sinr(rec *reception) float64 {
	if rec.interferenceMw == 0 {
		return rec.power() - a.noiseDBm
	}
	return a.cfg.SINRdBWithNoiseMw(rec.power(), phy.MilliwattToDBm(rec.interferenceMw), a.noiseMw)
}

// Radio is one node's network interface on the Air.
type Radio struct {
	id      string
	air     *Air
	pos     func() geo.Vec
	handler RxHandler
	mac     *mac.EDCA
	macRNG  *rng.Source
	// txDoneFn is the bound mac.TxDone method, created once so transmit
	// completions do not allocate method values; transmitFn is the bound
	// transmitFrame, the MAC's Transmit hook.
	txDoneFn   des.Handler
	transmitFn func(mac.Frame)

	active  []*reception
	txStart des.Time
	txEnd   des.Time
	busy    int
}

// ID returns the node ID.
func (r *Radio) ID() string { return r.id }

// MAC exposes the EDCA entity (for stats and tests).
func (r *Radio) MAC() *mac.EDCA { return r.mac }

// Send broadcasts an application payload of the given size (payload bits,
// the paper's packetSize) at the given access category. MAC overhead is
// added automatically.
func (r *Radio) Send(payload any, payloadBits int, ac mac.AccessCategory, seq uint64) error {
	return r.mac.Enqueue(mac.Frame{
		Seq:     seq,
		Src:     r.id,
		Bits:    payloadBits + MACOverheadBits,
		AC:      ac,
		Payload: payload,
	})
}

// SendBeacon broadcasts a platooning beacon. Unlike Send, the beacon
// travels inline in the frame (no interface boxing), so the steady-state
// beaconing path stays allocation-free end to end.
func (r *Radio) SendBeacon(b msg.Beacon, payloadBits int, ac mac.AccessCategory, seq uint64) error {
	return r.mac.Enqueue(mac.Frame{
		Seq:       seq,
		Src:       r.id,
		Bits:      payloadBits + MACOverheadBits,
		AC:        ac,
		Beacon:    b,
		HasBeacon: true,
	})
}

// beginReception registers an incoming frame: it interferes with every
// overlapping reception and may raise carrier sense. A deferred power
// lies inside the guard distance and so clears the CCA threshold.
func (r *Radio) beginReception(rec *reception) {
	if len(r.active) > 0 {
		mw := rec.mw()
		for _, other := range r.active {
			other.interferenceMw += mw
			rec.interferenceMw += other.mw()
		}
	}
	r.active = append(r.active, rec)
	if rec.deferred || rec.powerDBm >= r.air.cfg.CCAThresholdDBm {
		rec.sensedBusy = true
		r.busy++
		if r.busy == 1 {
			r.mac.ChannelBusy()
		}
	}
}

// endReception finishes an incoming frame: decide, deliver, release
// carrier sense. A power still deferred lies inside the guard distance
// and never overlapped another reception (an overlap computes it), so it
// clears sensitivity and decodes without interference.
func (r *Radio) endReception(rec *reception) {
	for i, other := range r.active {
		if other == rec {
			n := len(r.active) - 1
			copy(r.active[i:], r.active[i+1:])
			r.active[n] = nil
			r.active = r.active[:n]
			break
		}
	}
	if rec.sensedBusy {
		r.busy--
		if r.busy == 0 {
			r.mac.ChannelIdle()
		}
	}

	a := r.air
	cfg := &a.cfg
	switch {
	case rec.noise:
		// Jamming bursts are never decoded; their effect is the carrier
		// sense and interference they already contributed.
		return
	case !rec.deferred && rec.powerDBm < cfg.SensitivityDBm:
		a.stats.DroppedBelowSensitivity++
		return
	case r.txStart < rec.end && rec.start < r.txEnd:
		// Half duplex: we transmitted during part of the reception.
		a.stats.DroppedHalfDuplex++
		return
	case !a.sched.InCCH(rec.start) || !a.sched.InCCH(rec.end):
		a.stats.DroppedOffChannel++
		return
	}

	if !rec.deferred {
		sinr := a.sinr(rec)
		ok := false
		switch cfg.Decider {
		case phy.DeciderThreshold:
			ok = sinr >= cfg.MCS.MinSNRdB()
		case phy.DeciderProbabilistic:
			per := cfg.MCS.PacketErrorRate(sinr, rec.frame.Bits)
			ok = !a.deciderRNG.Bernoulli(per)
		}
		if !ok {
			a.stats.DroppedSINR++
			return
		}
	}
	a.stats.Deliveries++
	if r.handler == nil {
		return
	}
	f := &rec.frame
	r.handler(f, RxMeta{
		Src:       f.Src,
		SentAt:    rec.sentAt,
		RxAt:      rec.end,
		PropDelay: rec.delay,
		rec:       rec,
	})
}
