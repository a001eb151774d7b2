// Package mac implements the IEEE 802.11p EDCA medium-access layer of
// the Veins substitute: per-access-category queues, AIFS deferral, slot
// backoff frozen while the channel is busy, internal AC contention, and
// IEEE 1609.4 transmit-window gating. Platooning beacons are broadcast
// frames, so there are no ACKs and no retransmissions — exactly the
// fire-and-forget CAM path the ComFASE attacks disturb.
package mac

import (
	"errors"
	"fmt"

	"comfase/internal/msg"
	"comfase/internal/sim/des"
	"comfase/internal/sim/rng"
	"comfase/internal/wave1609"
)

// 802.11p timing on a 10 MHz channel.
const (
	// SlotTime is the EDCA slot duration.
	SlotTime = 13 * des.Microsecond
	// SIFS is the short interframe space.
	SIFS = 32 * des.Microsecond
)

// AccessCategory is an EDCA traffic class.
type AccessCategory int

// Access categories in increasing priority. Veins sends CAMs at ACVoice
// by default on the CCH; platooning beacons use ACVideo in Plexe.
const (
	ACBackground AccessCategory = iota + 1
	ACBestEffort
	ACVideo
	ACVoice
	numAC = 4
)

// String implements fmt.Stringer.
func (ac AccessCategory) String() string {
	switch ac {
	case ACBackground:
		return "AC_BK"
	case ACBestEffort:
		return "AC_BE"
	case ACVideo:
		return "AC_VI"
	case ACVoice:
		return "AC_VO"
	default:
		return fmt.Sprintf("AC(%d)", int(ac))
	}
}

// Valid reports whether ac is a defined category.
func (ac AccessCategory) Valid() bool {
	return ac >= ACBackground && ac <= ACVoice
}

// EDCAParams are the contention parameters of one access category.
type EDCAParams struct {
	// AIFSN is the arbitration interframe space number.
	AIFSN int
	// CWmin is the minimum contention window (slots).
	CWmin int
	// CWmax is the maximum contention window (slots); broadcast frames
	// never escalate beyond CWmin, but the field documents the standard.
	CWmax int
}

// Params returns the 802.11p EDCA parameter set for the category
// (CWmin=15 aCWmin on 10 MHz PHY).
func (ac AccessCategory) Params() EDCAParams {
	switch ac {
	case ACVoice:
		return EDCAParams{AIFSN: 2, CWmin: 3, CWmax: 7}
	case ACVideo:
		return EDCAParams{AIFSN: 3, CWmin: 7, CWmax: 15}
	case ACBestEffort:
		return EDCAParams{AIFSN: 6, CWmin: 15, CWmax: 1023}
	default: // ACBackground
		return EDCAParams{AIFSN: 9, CWmin: 15, CWmax: 1023}
	}
}

// AIFS returns the arbitration interframe space of the category.
func (ac AccessCategory) AIFS() des.Time {
	return SIFS + des.Time(ac.Params().AIFSN)*SlotTime
}

// MinAIFS is the shortest arbitration interframe space, AC_VO's: no
// attempt starts sooner than this after carrier sense drops.
const MinAIFS = SIFS + 2*SlotTime

// Frame is a MAC service data unit to broadcast.
//
// The platooning beacon — the only message on the steady-state hot path
// — travels inline in the Beacon field rather than boxed into Payload,
// so sending one copies a struct instead of allocating an interface
// value. Other applications (teleop commands) keep using Payload.
type Frame struct {
	// Seq is an application-level sequence number (for tracing).
	Seq uint64
	// Src is the sender's node ID.
	Src string
	// Bits is the PSDU size in bits (application payload + MAC
	// overhead); the PHY derives the airtime from it.
	Bits int
	// AC is the EDCA access category.
	AC AccessCategory
	// Beacon carries a platooning beacon inline when HasBeacon is set;
	// it is ignored otherwise.
	Beacon msg.Beacon
	// HasBeacon discriminates the inline Beacon from the generic
	// Payload.
	HasBeacon bool
	// Payload carries any non-beacon application message (e.g. a teleop
	// Command). Nil for beacon frames.
	Payload any
}

// Errors returned by the MAC.
var (
	ErrQueueFull = errors.New("mac: queue full, frame dropped")
	ErrBadFrame  = errors.New("mac: invalid frame")
)

// Stats counts MAC-level events for analysis and tests.
type Stats struct {
	// Enqueued counts frames accepted into a queue.
	Enqueued uint64
	// Sent counts frames handed to the PHY.
	Sent uint64
	// DroppedQueueFull counts frames rejected on a full queue.
	DroppedQueueFull uint64
	// BackoffsDrawn counts fresh backoff draws.
	BackoffsDrawn uint64
	// BusyDeferrals counts attempts interrupted by a busy channel.
	BusyDeferrals uint64
}

// Config configures an EDCA entity.
type Config struct {
	// Kernel drives the timers (required).
	Kernel *des.Kernel
	// RNG supplies backoff draws (required).
	RNG *rng.Source
	// Schedule gates transmissions per IEEE 1609.4.
	Schedule wave1609.Schedule
	// Airtime maps PSDU bits to on-air duration (required; provided by
	// the PHY's MCS).
	Airtime func(bits int) des.Time
	// Medium attaches the entity to the shared channel (required).
	Medium Medium
	// MaxQueue is the per-AC queue capacity. Zero defaults to 32.
	MaxQueue int
}

// Medium is an EDCA entity's attachment to the shared channel.
type Medium interface {
	// Transmit starts a transmission. The medium must call TxDone when
	// the transmission ends.
	Transmit(f Frame)
	// Held reports whether carrier sense is certain to rise at this
	// station before an attempt starting at start would fire: a
	// reception already queued there raises it at or before start. Such
	// an attempt could only be interrupted, so it is taken without a
	// kernel event (see kick).
	Held(start des.Time) bool
}

// acState is the contention state of one access category. The queue is
// a fixed-capacity ring buffer: frames are consumed by advancing head,
// never by reslicing, so steady-state enqueue/dequeue touches no
// allocator. Capacity equals the configured MaxQueue and never regrows.
type acState struct {
	ring  []Frame
	head  int
	count int
	// backoff is the remaining backoff slots; -1 means no backoff is
	// pending (immediate access after AIFS is allowed).
	backoff int
}

// push appends a frame at the tail. The caller has checked capacity.
func (st *acState) push(f Frame) {
	st.ring[(st.head+st.count)%len(st.ring)] = f
	st.count++
}

// front returns the head frame without removing it.
func (st *acState) front() *Frame { return &st.ring[st.head] }

// pop removes and returns the head frame, clearing the slot so the ring
// does not retain payload references past dequeue.
func (st *acState) pop() Frame {
	f := st.ring[st.head]
	st.ring[st.head] = Frame{}
	st.head = (st.head + 1) % len(st.ring)
	st.count--
	return f
}

// EDCA is one station's 802.11p broadcast MAC entity.
type EDCA struct {
	k        *des.Kernel
	rng      *rng.Source
	sched    wave1609.Schedule
	airtime  func(int) des.Time
	medium   Medium
	maxQueue int

	acs [numAC]acState
	// queued is the number of frames across all access categories.
	queued int

	busy         bool
	transmitting bool

	// attempt is the pending transmission-start event (0 = none). A held
	// attempt is des.Unqueued: it waits for the interruption carrier
	// sense is certain to bring, with no kernel event (see kick).
	attempt des.EventID
	// deferAC is the category the pending attempt belongs to.
	deferAC AccessCategory
	// deferStart is when the current AIFS+backoff deferral began.
	deferStart des.Time

	// txStartFn is the bound txStart method, created once so every kick
	// does not allocate a fresh method value.
	txStartFn des.Handler

	stats Stats
}

// New builds an EDCA entity.
func New(cfg Config) (*EDCA, error) {
	m := &EDCA{}
	m.txStartFn = m.txStart
	if err := m.Reset(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset reinitialises the entity in place for a new configuration,
// reusing the per-AC queue storage. It restores exactly the state New
// leaves behind — empty queues, no backoff, idle medium, zeroed counters
// — which is what lets a pooled radio replay a fresh run bit-for-bit.
func (m *EDCA) Reset(cfg Config) error {
	switch {
	case cfg.Kernel == nil:
		return errors.New("mac: Config.Kernel is required")
	case cfg.RNG == nil:
		return errors.New("mac: Config.RNG is required")
	case cfg.Airtime == nil:
		return errors.New("mac: Config.Airtime is required")
	case cfg.Medium == nil:
		return errors.New("mac: Config.Medium is required")
	}
	if err := cfg.Schedule.Validate(); err != nil {
		return err
	}
	maxQ := cfg.MaxQueue
	if maxQ <= 0 {
		maxQ = 32
	}
	m.k = cfg.Kernel
	m.rng = cfg.RNG
	m.sched = cfg.Schedule
	m.airtime = cfg.Airtime
	m.medium = cfg.Medium
	m.maxQueue = maxQ
	for i := range m.acs {
		st := &m.acs[i]
		if len(st.ring) != maxQ {
			st.ring = make([]Frame, maxQ)
		} else {
			for j := range st.ring {
				st.ring[j] = Frame{}
			}
		}
		st.head = 0
		st.count = 0
		st.backoff = -1
	}
	m.queued = 0
	m.busy = false
	m.transmitting = false
	m.attempt = 0
	m.deferAC = 0
	m.deferStart = 0
	m.stats = Stats{}
	return nil
}

// Stats returns a snapshot of the MAC counters.
func (m *EDCA) Stats() Stats { return m.stats }

// QueueLen reports the number of frames queued in the category.
func (m *EDCA) QueueLen(ac AccessCategory) int {
	if !ac.Valid() {
		return 0
	}
	return m.acs[ac-1].count
}

// Enqueue accepts a broadcast frame for transmission.
func (m *EDCA) Enqueue(f Frame) error {
	if !f.AC.Valid() || f.Bits <= 0 {
		return fmt.Errorf("%w: ac=%v bits=%d", ErrBadFrame, f.AC, f.Bits)
	}
	st := &m.acs[f.AC-1]
	if st.count >= m.maxQueue {
		m.stats.DroppedQueueFull++
		return ErrQueueFull
	}
	st.push(f)
	m.queued++
	m.stats.Enqueued++
	// A frame arriving to a busy medium must draw a backoff.
	if m.busy && st.backoff < 0 {
		m.drawBackoff(f.AC)
	}
	m.kick(m.k.Now())
	return nil
}

// ChannelBusy notifies the MAC that carrier sense went busy at now: the
// kernel's Now for an event, or the time of a reception a medium settles
// off the kernel queue after its key has passed.
func (m *EDCA) ChannelBusy(now des.Time) {
	if m.busy {
		return
	}
	m.busy = true
	if m.attempt != 0 {
		m.interruptAttempt(now)
	}
}

// ChannelIdle notifies the MAC that carrier sense went idle at now (see
// ChannelBusy). An attempt it starts is held (Medium.Held) whenever
// carrier sense is certain to rise again first.
func (m *EDCA) ChannelIdle(now des.Time) {
	if !m.busy {
		return
	}
	m.busy = false
	m.kick(now)
}

// Busy reports the carrier-sense state.
func (m *EDCA) Busy() bool { return m.busy }

// Idle reports whether the entity has no frame queued and no
// transmission attempt pending. Until the next Enqueue, ChannelBusy and
// ChannelIdle then only flip the carrier-sense flag and TxDone only
// clears the transmitting flag: none of them schedules, cancels or draws.
func (m *EDCA) Idle() bool { return m.attempt == 0 && m.queued == 0 }

// Scheduled reports whether a transmission attempt waits in the kernel
// queue: one neither held nor keyed past the kernel's horizon.
func (m *EDCA) Scheduled() bool { return m.attempt != 0 && m.attempt != des.Unqueued }

// TxDone notifies the MAC that its own transmission completed on the air.
func (m *EDCA) TxDone() {
	if !m.transmitting {
		return
	}
	m.transmitting = false
	m.kick(m.k.Now())
}

// Transmitting reports whether the station is currently on air.
func (m *EDCA) Transmitting() bool { return m.transmitting }

// drawBackoff draws a fresh uniform backoff in [0, CWmin] for the AC.
// Broadcast frames are never retransmitted, so the window never doubles.
func (m *EDCA) drawBackoff(ac AccessCategory) {
	st := &m.acs[ac-1]
	st.backoff = m.rng.IntN(ac.Params().CWmin + 1)
	m.stats.BackoffsDrawn++
}

// interruptAttempt cancels the pending attempt at now and credits elapsed
// backoff slots, freezing the remainder per 802.11 backoff rules. A held
// attempt has no event to cancel, and Cancel ignores des.Unqueued.
func (m *EDCA) interruptAttempt(now des.Time) {
	m.k.Cancel(m.attempt)
	m.attempt = 0
	m.stats.BusyDeferrals++
	st := &m.acs[m.deferAC-1]
	if st.backoff < 0 {
		// Immediate access was interrupted: draw a backoff for the retry.
		m.drawBackoff(m.deferAC)
		return
	}
	elapsed := now.Sub(m.deferStart) - m.deferAC.AIFS()
	if elapsed > 0 {
		slots := int(elapsed / SlotTime)
		if slots > st.backoff {
			slots = st.backoff
		}
		st.backoff -= slots
	}
}

// nextAC picks the highest-priority non-empty access category. Internal
// contention resolution: when several ACs are ready the higher class
// wins, matching EDCA's internal-collision rule for a single station.
func (m *EDCA) nextAC() (AccessCategory, bool) {
	if m.queued == 0 {
		return 0, false
	}
	for ac := ACVoice; ac >= ACBackground; ac-- {
		if m.acs[ac-1].count > 0 {
			return ac, true
		}
	}
	return 0, false
}

// kick (re)schedules the next transmission attempt at now if possible.
// When carrier sense is held until the attempt's start (Medium.Held), a
// busy channel is certain to interrupt the attempt before it fires, so
// the attempt is held: it takes no kernel event, and kick and the
// interruption still make every deferral update, count and backoff draw
// a scheduled attempt would have made.
func (m *EDCA) kick(now des.Time) {
	if m.transmitting || m.busy || m.attempt != 0 {
		return
	}
	ac, ok := m.nextAC()
	if !ok {
		return
	}
	st := &m.acs[ac-1]
	wait := ac.AIFS()
	if st.backoff > 0 {
		wait += des.Time(st.backoff) * SlotTime
	}
	start := now.Add(wait)
	air := m.airtime(st.front().Bits)
	if !m.sched.CanTransmit(start, air) {
		opp := m.sched.NextTxOpportunity(start, air)
		if opp == des.MaxTime {
			// Frame can never fit a CCH window: drop it.
			st.pop()
			m.queued--
			m.kick(now)
			return
		}
		// Re-contend from the window start with a fresh AIFS.
		start = opp.Add(ac.AIFS())
		if st.backoff > 0 {
			start = start.Add(des.Time(st.backoff) * SlotTime)
		}
	}
	m.deferAC = ac
	m.deferStart = now
	if m.medium.Held(start) {
		m.attempt = des.Unqueued
		return
	}
	m.attempt = m.k.ScheduleAt(start, m.txStartFn)
}

// txStart fires when AIFS+backoff completed with an idle medium.
func (m *EDCA) txStart() {
	m.attempt = 0
	st := &m.acs[m.deferAC-1]
	if st.count == 0 {
		return
	}
	f := st.pop()
	m.queued--
	st.backoff = -1
	m.transmitting = true
	m.stats.Sent++
	m.medium.Transmit(f)
	// Post-transmission backoff so back-to-back frames re-contend.
	if st.count > 0 {
		m.drawBackoff(m.deferAC)
	}
}
