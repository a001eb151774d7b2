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

// RxFilter is a radio's receive filter (Radio.SetFilter): Wants is a pure
// function of the frame that reports whether the radio's handler may
// read it. An interface rather than a func, so a receiver installs itself
// without allocating a method value.
type RxFilter interface {
	Wants(f *mac.Frame) bool
}

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
	// Reference turns the medium's exact fast paths off (guard distance,
	// lazy receptions, batched fan-out): see core.EngineConfig.Reference.
	Reference bool
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
	// airBits and airDur memoise its last result (airBits < 0: none):
	// every frame of a platoon has the same size.
	airtimeFn func(int) des.Time
	airBits   int
	airDur    des.Time
	// recFree is the reception freelist: finished receptions are recycled
	// here with their scheduling closure intact, so steady-state frame
	// delivery allocates nothing.
	recFree []*reception
	// allRecs registers every reception ever allocated on this medium, in
	// creation order; each reception holds its registry slot (idx). The
	// registry is what lets a checkpoint capture in-flight receptions by
	// identity: kernel handlers hold pointers to specific reception
	// objects, so restore must rewind those objects' fields in place.
	allRecs []*reception

	// links holds the receptions of the fan-out being queued, in the order
	// they were made; keys is the scratch list of its dispatch keys when
	// it needs a general sort (see queue).
	links []*reception
	keys  []fanKey
	// reference queues every fan-out event with its own ScheduleAt.
	reference bool
	// pauseFn is the bound pause method, the kernel's pause hook.
	pauseFn func(drain bool)

	stats Stats
}

// NewAir builds an empty medium.
func NewAir(cfg Config) (*Air, error) {
	a := &Air{byID: make(map[string]*Radio, 8)}
	a.airtimeFn = a.airtime
	a.pauseFn = a.pause
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
	a.airBits = -1
	a.noiseMw = phy.DBmToMilliwatt(cfg.Channel.NoiseFloorDBm)
	a.noiseDBm = phy.MilliwattToDBm(a.noiseMw)
	a.reference = cfg.Reference
	a.guardM = guardDistance(cfg.Channel, a.noiseDBm)
	if a.reference {
		a.guardM = -1
	}
	a.interceptor = nil
	a.stats = Stats{}
	if a.deciderRNG == nil {
		a.deciderRNG = rng.New(cfg.Seed, "nic.decider")
	} else {
		a.deciderRNG.Reseed(cfg.Seed, "nic.decider")
	}
	for _, r := range a.radios {
		a.detach(r)
	}
	a.radios = a.radios[:0]
	clear(a.byID)
	// The kernel was reset before the medium, dropping the begin/end
	// events of every reception still in flight; none of them will ever
	// finish, so return the whole registry to the freelist.
	a.recFree = a.recFree[:0]
	for _, rec := range a.allRecs {
		a.recycle(rec)
	}
	a.k.SetPauseHook(a.pauseFn)
	return nil
}

// detach moves a radio into the spare pool that AddRadio recycles,
// dropping its references into the experiment's object graph so the pool
// does not pin it in memory.
func (a *Air) detach(r *Radio) {
	clear(r.active)
	r.active = r.active[:0]
	r.lazy = r.lazy[:0]
	r.lazyHead = 0
	r.pos = nil
	r.handler = nil
	r.filter = nil
	a.spare = append(a.spare, r)
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

// Stats returns a snapshot of the medium counters. Reading them observes
// every radio: receptions kept off the kernel queue whose keys have
// passed are settled first.
func (a *Air) Stats() Stats {
	for _, r := range a.radios {
		r.settle()
	}
	return a.stats
}

// Pooled reports how many receptions the medium has allocated: the size
// of its reception registry, free ones included.
func (a *Air) Pooled() int { return len(a.allRecs) }

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
		r.filter = nil
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
	m, err := mac.New(r.macConfig())
	if err != nil {
		return nil, err
	}
	r.mac = m
	r.txDoneFn = r.txDone
	a.radios = append(a.radios, r)
	a.byID[id] = r
	return r, nil
}

// macConfig assembles the MAC wiring for this radio. The radio is its
// MAC's medium through macPort, a conversion that allocates nothing.
func (r *Radio) macConfig() mac.Config {
	a := r.air
	return mac.Config{
		Kernel:   a.k,
		RNG:      r.macRNG,
		Schedule: a.sched,
		Airtime:  a.airtimeFn,
		Medium:   (*macPort)(r),
	}
}

// macPort is a radio as its MAC's medium (mac.Medium).
type macPort Radio

// Transmit starts the MAC's frame on the air. The attempt that calls it
// is a MAC event, which observes the radio, so the timeline settles
// first: only receptions that leave carrier sense alone can wait there
// before a scheduled attempt (see held), and their decisions read the
// transmit window this transmission moves.
func (p *macPort) Transmit(f mac.Frame) {
	r := (*Radio)(p)
	r.settle()
	r.air.transmit(r, f)
}

// Held implements mac.Medium (see Radio.held).
func (p *macPort) Held(start des.Time) bool { return (*Radio)(p).held(start) }

// airtime converts PSDU bits to on-air time via the configured MCS.
func (a *Air) airtime(bits int) des.Time {
	if bits != a.airBits {
		us := a.cfg.MCS.FrameAirtimeUs(bits)
		a.airBits, a.airDur = bits, des.FromSeconds(us/1e6)
	}
	return a.airDur
}

// acquireReception takes a reception from the freelist, refilled one
// fan-out at a time (refill), and binds it to a receiver. It zeroes the
// fields that transmit and Jammer.emit do not set, and leaves the others
// (frame, times, power, distance) for the caller to fill in.
func (a *Air) acquireReception(dst *Radio) *reception {
	if len(a.recFree) == 0 {
		a.refill()
	}
	n := len(a.recFree)
	rec := a.recFree[n-1]
	a.recFree = a.recFree[:n-1]
	rec.dst = dst
	rec.delay = 0
	rec.interferenceMw = 0
	rec.mwKnown = false
	rec.deferred = false
	rec.sensedBusy = false
	rec.noise = false
	rec.lazy = false
	rec.begun = false
	return rec
}

// refill adds one fan-out's worth of receptions to the pool, sized from
// the radio count: one per receiver of a transmission, allocated as one
// block, each with its scheduling closure. The freelist grows with the
// registry, so recycling never reallocates it.
func (a *Air) refill() {
	block := make([]reception, max(len(a.radios)-1, 1))
	if need := len(a.allRecs) + len(block); cap(a.recFree) < need {
		a.recFree = slices.Grow(a.recFree, need-len(a.recFree))
	}
	for i := range block {
		rec := &block[i]
		rec.idx = int32(len(a.allRecs))
		rec.fn = func() {
			r := rec.dst
			r.settle()
			if !rec.begun {
				r.beginReception(rec, a.k.Now())
				return
			}
			if r.endReception(rec, a.k.Now()) {
				r.deliver(rec)
			}
			a.recycle(rec)
		}
		a.allRecs = append(a.allRecs, rec)
		a.recFree = append(a.recFree, rec)
	}
}

// recycle returns a reception to the freelist. Only the fields that hold
// references are cleared, so the pool pins no payload, node ID or radio
// of a finished frame; acquireReception resets the rest.
func (a *Air) recycle(rec *reception) {
	f := &rec.frame
	f.Src = ""
	f.Payload = nil
	f.Beacon.Source = ""
	f.Beacon.PlatoonID = ""
	rec.dst = nil
	a.recFree = append(a.recFree, rec)
}

// elides reports whether the fan-out being made may keep the receptions
// no handler reads off the kernel queue (see Radio.settle). It is off for
// the reference medium, for the probabilistic decider, whose Air-wide
// stream draws at every reception end in dispatch order, and while an
// event budget is set, whose abort points follow dispatched events. A
// reception starts at Now at the earliest, so the kernel must also not
// have passed PriorityNormal at Now: a key kept there would be due on
// arrival (des.Kernel.Reserve).
func (a *Air) elides() bool {
	return !a.reference && a.cfg.Decider == phy.DeciderThreshold &&
		a.k.EventBudget() == 0 && !a.k.Passed(a.k.Now(), des.PriorityNormal, math.MaxUint64)
}

// pause is the kernel's pause hook: when Run or RunUntil returns, every
// radio settles its due receptions, and a Run that found the queue empty
// gets the rest back as events.
func (a *Air) pause(drain bool) {
	for _, r := range a.radios {
		r.settle()
		if drain {
			r.promote()
		}
	}
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
	elide := a.elides()
	a.resetLinks()
	for _, dst := range a.radios {
		if dst == src {
			continue
		}
		dist := srcPos.Dist(dst.pos())
		delay := a.cfg.Delay.Delay(dist)
		// The frame is written straight into the pooled reception; the
		// verdict's overrides are applied there in place.
		var rec *reception
		lazy := elide
		if a.interceptor != nil {
			v := a.interceptor.Intercept(now, src.id, dst.id, f)
			if v.Drop {
				a.stats.DroppedByInterceptor++
				continue
			}
			if v.OverrideDelay {
				delay = v.Delay
				a.stats.DelayOverridden++
				if now.Add(delay) > a.k.Horizon() {
					// The frame would begin after the run ends (a DoS
					// attack): the fading stream keeps its draw, and
					// nothing is pooled or queued.
					if a.cfg.Fading != nil {
						a.cfg.Fading.GainDB(dist)
					}
					continue
				}
				lazy = false
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
		rec.lazy = lazy && dst.mac.Idle() && dst.ignores(&rec.frame)
		a.links = append(a.links, rec)
	}
	a.queue(src.txDoneFn, src.txEnd, dur)
}

// queue enters a fan-out into the kernel as one batch: the receptions in
// a.links and, for a transmission, its txDone at txEnd (nil for a jamming
// burst). The reference order is the reference medium's, one ScheduleAt
// per event: txDone, then each link's begin and end. BatchAt hands the
// batch consecutive sequence numbers in call order and no other event
// takes one in between, so against any other event a batch member orders
// by (time, priority) and the range alone, and among themselves by call
// order at equal times. Calling BatchAt in (time, reference index) order
// therefore dispatches every event exactly as the reference order would,
// and leaves EndBatch keys that are already sorted.
//
// A lazy reception (see Radio.settle) takes its begin and end keys with
// Reserve at the point its BatchAt calls would have been made, and goes
// onto its radio's timeline instead of into the batch.
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
	if a.reference {
		if txDone != nil {
			k.ScheduleAt(txEnd, txDone)
		}
		for _, rec := range a.links {
			k.ScheduleAt(rec.start, rec.fn)
			k.ScheduleAt(rec.end, rec.fn)
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
			if rec.lazy {
				rec.dst.keepLazy(rec.start, k.Reserve(), rec, false)
			} else {
				k.BatchAt(rec.start, des.PriorityNormal, rec.fn)
			}
		}
		if txDone != nil {
			k.BatchAt(txEnd, des.PriorityNormal, txDone)
		}
		for _, rec := range a.links {
			if rec.lazy {
				rec.dst.keepLazy(rec.end, k.Reserve(), rec, true)
			} else {
				k.BatchAt(rec.end, des.PriorityNormal, rec.fn)
			}
		}
	} else {
		a.queueSorted(txDone, txEnd)
	}
	k.EndBatch()
}

// resetLinks empties the fan-out list, sized once to the radio count.
func (a *Air) resetLinks() {
	if cap(a.links) < len(a.radios) {
		a.links = make([]*reception, 0, len(a.radios))
	}
	a.links = a.links[:0]
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
		if x.ref == 0 {
			k.BatchAt(x.at, des.PriorityNormal, txDone)
			continue
		}
		rec := a.links[(x.ref-1)/2]
		if rec.lazy {
			rec.dst.keepLazy(x.at, k.Reserve(), rec, x.ref%2 == 0)
		} else {
			k.BatchAt(x.at, des.PriorityNormal, rec.fn)
		}
	}
	a.keys = keys
}

// reception is one frame arriving at one radio. Receptions are pooled on
// the Air: acquireReception recycles finished entries together with the
// pre-bound scheduling closure, so the per-link delivery path is
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
	// lazy marks a reception no handler reads, bound for its radio's
	// timeline instead of the kernel queue (see Radio.settle).
	lazy bool
	// begun marks a reception whose begin has run.
	begun bool

	// dst is the receiving radio. fn is the kernel handler of both the
	// begin and the end, created once per pooled entry: the begin is
	// always dispatched first, so fn begins a reception that has not
	// begun and ends one that has. idx is the registry slot.
	dst *Radio
	fn  des.Handler
	idx int32
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
	filter  RxFilter
	mac     *mac.EDCA
	macRNG  *rng.Source
	// txDoneFn is the bound txDone method, created once so transmit
	// completions do not allocate method values.
	txDoneFn des.Handler

	active  []*reception
	txStart des.Time
	txEnd   des.Time
	busy    int

	// lazy is the radio's timeline: the begin and end events of lazy
	// receptions, ordered by the (time, seq) keys reserved for them, of
	// which lazy[lazyHead:] are still to settle (see settle).
	lazy     []lazyEvent
	lazyHead int
	// settling is set while settle runs the timeline: the MAC then sees
	// carrier sense change at keys the kernel has long passed.
	settling bool
}

// lazyEvent is the begin or end of a lazy reception at its reserved key;
// the priority is always des.PriorityNormal.
type lazyEvent struct {
	at  des.Time
	seq uint64
	rec *reception
	end bool
}

// ID returns the node ID.
func (r *Radio) ID() string { return r.id }

// MAC exposes the EDCA entity (for stats and tests). It observes the
// radio: due lazy receptions are settled first. Frames must still enter
// through Send or SendBeacon.
func (r *Radio) MAC() *mac.EDCA {
	r.settle()
	return r.mac
}

// SetFilter installs the radio's receive filter (nil removes it). The
// filter is the handler's promise to ignore every frame it rejects, so
// the medium may keep such a frame's reception off the kernel queue and
// never hand it to the handler. Install it before the radio receives.
func (r *Radio) SetFilter(f RxFilter) { r.filter = f }

// ignores reports whether no handler will read f at this radio.
func (r *Radio) ignores(f *mac.Frame) bool {
	return r.handler == nil || r.filter != nil && !r.filter.Wants(f)
}

// Send broadcasts an application payload of the given size (payload bits,
// the paper's packetSize) at the given access category. MAC overhead is
// added automatically.
func (r *Radio) Send(payload any, payloadBits int, ac mac.AccessCategory, seq uint64) error {
	r.settle()
	err := r.mac.Enqueue(mac.Frame{
		Seq:     seq,
		Src:     r.id,
		Bits:    payloadBits + MACOverheadBits,
		AC:      ac,
		Payload: payload,
	})
	if !r.mac.Idle() {
		r.promote()
	}
	return err
}

// SendBeacon broadcasts a platooning beacon. Unlike Send, the beacon
// travels inline in the frame (no interface boxing), so the steady-state
// beaconing path stays allocation-free end to end.
func (r *Radio) SendBeacon(b msg.Beacon, payloadBits int, ac mac.AccessCategory, seq uint64) error {
	r.settle()
	err := r.mac.Enqueue(mac.Frame{
		Seq:       seq,
		Src:       r.id,
		Bits:      payloadBits + MACOverheadBits,
		AC:        ac,
		Beacon:    b,
		HasBeacon: true,
	})
	if !r.mac.Idle() {
		r.promote()
	}
	return err
}

// txDone ends the radio's own transmission at its MAC.
func (r *Radio) txDone() {
	r.settle()
	r.mac.TxDone()
}

// keepLazy puts the begin or end of a lazy reception onto the timeline at
// its reserved key. The key's seq is the newest, so it goes after every
// event at the same time.
func (r *Radio) keepLazy(at des.Time, seq uint64, rec *reception, end bool) {
	if r.lazy == nil {
		// Room for two fan-outs' begins and ends from every other radio.
		r.lazy = make([]lazyEvent, 0, 4*len(r.air.radios))
	}
	r.lazy = append(r.lazy, lazyEvent{})
	i := len(r.lazy) - 1
	for ; i > r.lazyHead && r.lazy[i-1].at > at; i-- {
		r.lazy[i] = r.lazy[i-1]
	}
	r.lazy[i] = lazyEvent{at: at, seq: seq, rec: rec, end: end}
}

// settle runs, in key order, the timeline's events whose keys the kernel
// has passed, with the code their kernel events would have run minus the
// handler call, and counts them as executed. It is called whenever the
// radio is observed: at its own reception events, Send and SendBeacon,
// txDone, the attempt that transmits, MAC, Air.Stats and every
// Run/RunUntil return. That is exact: a lazy reception touches nothing
// but this radio and the medium's counters, which only these observers
// read, and the MAC sees carrier sense change at the event's own time.
// At an idle MAC (mac.EDCA.Idle) ChannelBusy and ChannelIdle only flip
// the carrier-sense flag; the MAC stays idle until an observer enqueues
// a frame, and that observer promotes what is left. A MAC holding frames
// meets only jamming bursts whose every carrier-sense drop is held
// (Jammer.emit): the attempt it starts is held too, and so schedules
// nothing (see held).
func (r *Radio) settle() {
	if r.lazyHead == len(r.lazy) {
		return
	}
	a := r.air
	first := r.lazyHead
	r.settling = true
	for r.lazyHead < len(r.lazy) {
		ev := &r.lazy[r.lazyHead]
		if !a.k.Passed(ev.at, des.PriorityNormal, ev.seq) {
			break
		}
		r.lazyHead++
		switch next := r.lazyHead; {
		case ev.end:
			r.endReception(ev.rec, ev.at)
			a.recycle(ev.rec)
		case len(r.active) == 0 && next < len(r.lazy) && r.lazy[next].rec == ev.rec && r.mac.Idle() &&
			a.k.Passed(r.lazy[next].at, des.PriorityNormal, r.lazy[next].seq):
			// Nothing else is on the air here from this begin to its own
			// end: any other begin in between would sit between them on
			// the timeline or, as an event, would have settled this begin
			// already. The reception overlaps nothing, and the carrier
			// sense it raises falls again with the idle MAC's busy flag
			// back where it was, so only the decision is left to make.
			r.decide(ev.rec)
			a.recycle(ev.rec)
			r.lazyHead++
		default:
			r.beginReception(ev.rec, ev.at)
		}
	}
	r.settling = false
	n := r.lazyHead
	a.k.CountSettled(uint64(n - first))
	switch {
	case n == len(r.lazy):
		r.lazy = r.lazy[:0]
		r.lazyHead = 0
	case n >= 64 && 2*n >= len(r.lazy):
		// A radio that never runs dry keeps its timeline from growing.
		r.lazy = r.lazy[:copy(r.lazy, r.lazy[n:])]
		r.lazyHead = 0
	}
}

// held is the MAC's Held hook: it reports whether a reception on the
// timeline raises carrier sense at or before start, so an attempt
// starting then is certain to be interrupted first. Every key on the
// timeline was reserved before the attempt's would be, so a begin at
// start itself comes first. While the timeline settles, the attempt's key
// would have been taken when the settled event was due, before later
// bursts were reserved, so only a begin strictly before start counts
// there; Jammer.emit keeps a burst at a MAC holding frames on the
// timeline only while such a begin is certain, so every drop that
// settles is held.
func (r *Radio) held(start des.Time) bool {
	cca := r.air.cfg.CCAThresholdDBm
	for i := r.lazyHead; i < len(r.lazy); i++ {
		ev := &r.lazy[i]
		if ev.at > start || r.settling && ev.at == start {
			break
		}
		if !ev.end && (ev.rec.deferred || ev.rec.powerDBm >= cca) {
			return true
		}
	}
	if r.settling {
		panic("nic: carrier sense dropped on a timeline with nothing to raise it again")
	}
	return false
}

// promote hands the rest of the timeline to the kernel as one chain at
// the reserved keys. Send and SendBeacon promote once they leave the MAC
// non-idle, so every callback a busy MAC sees fires at its own key; a
// Run that found the queue empty promotes too (Air.pause).
func (r *Radio) promote() {
	if r.lazyHead == len(r.lazy) {
		return
	}
	k := r.air.k
	k.BeginBatch()
	for _, ev := range r.lazy[r.lazyHead:] {
		k.BatchReserved(ev.at, des.PriorityNormal, ev.seq, ev.rec.fn)
	}
	k.EndBatch()
	r.lazy = r.lazy[:0]
	r.lazyHead = 0
}

// beginReception registers an incoming frame at time at: it interferes
// with every overlapping reception and may raise carrier sense. A
// deferred power lies inside the guard distance and so clears the CCA
// threshold.
func (r *Radio) beginReception(rec *reception, at des.Time) {
	if len(r.active) > 0 {
		mw := rec.mw()
		for _, other := range r.active {
			other.interferenceMw += mw
			rec.interferenceMw += other.mw()
		}
	}
	r.active = append(r.active, rec)
	rec.begun = true
	if rec.deferred || rec.powerDBm >= r.air.cfg.CCAThresholdDBm {
		rec.sensedBusy = true
		r.busy++
		if r.busy == 1 {
			r.mac.ChannelBusy(at)
		}
	}
}

// endReception finishes an incoming frame at time at: it releases
// carrier sense, then decides the frame and reports whether it decoded.
func (r *Radio) endReception(rec *reception, at des.Time) bool {
	for i, other := range r.active {
		if other == rec {
			n := len(r.active) - 1
			if i < n {
				copy(r.active[i:], r.active[i+1:])
			}
			r.active[n] = nil
			r.active = r.active[:n]
			break
		}
	}
	if rec.sensedBusy {
		r.busy--
		if r.busy == 0 {
			r.mac.ChannelIdle(at)
		}
	}
	return r.decide(rec)
}

// decide counts a finished reception's fate in the medium stats and
// reports whether it decoded. A power still deferred lies inside the
// guard distance and never overlapped another reception (an overlap
// computes it), so it clears sensitivity and decodes without
// interference.
func (r *Radio) decide(rec *reception) bool {
	a := r.air
	cfg := &a.cfg
	switch {
	case rec.noise:
		// Jamming bursts are never decoded; their effect is the carrier
		// sense and interference they already contributed.
		return false
	case !rec.deferred && rec.powerDBm < cfg.SensitivityDBm:
		a.stats.DroppedBelowSensitivity++
		return false
	case r.txStart < rec.end && rec.start < r.txEnd:
		// Half duplex: we transmitted during part of the reception.
		a.stats.DroppedHalfDuplex++
		return false
	case !a.sched.InCCH(rec.start) || !a.sched.InCCH(rec.end):
		a.stats.DroppedOffChannel++
		return false
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
			return false
		}
	}
	a.stats.Deliveries++
	return true
}

// deliver hands a decoded frame to the radio's handler, if any.
func (r *Radio) deliver(rec *reception) {
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
