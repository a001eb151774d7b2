package nic

import (
	"errors"
	"fmt"

	"comfase/internal/geo"
	"comfase/internal/mac"
	"comfase/internal/sim/des"
)

// Jammer is a physical-layer attacker: an RF source that radiates
// jamming energy on the channel, raising the interference floor at every
// receiver. Strong jamming has two effects, both emergent from the PHY
// model rather than scripted: receivers' carrier sense goes busy (so
// their MACs defer transmissions) and the SINR of concurrent frames
// collapses (so receptions fail). This realises the wireless-channel
// jamming the paper's future-work section plans and references
// ([28] reactive jamming, [29] jamming taxonomy).
type Jammer struct {
	id       string
	air      *Air
	pos      func() geo.Vec
	powerDBm float64
	burst    des.Time
	ticker   *des.Ticker
	// bursts counts emitted jamming bursts.
	bursts uint64
	// links memoises, per radio in registration order, the last distance
	// and the burst power and delay computed from it. A jammer emits many
	// bursts per traffic step, between which nothing moves, and path loss
	// and delay are pure functions of the distance, as the guard distance
	// already relies on.
	links []jamLink
}

// jamLink is one radio's memoised burst power and delay, and whether the
// jammer's last burst there waits on the radio's timeline for the next
// burst to hold its carrier-sense drop (see emit), with that burst's end.
type jamLink struct {
	dst      *Radio
	dist     float64
	powerDBm float64
	delay    des.Time
	held     bool
	heldEnd  des.Time
}

// AddJammer registers a jamming source on the medium. pos tracks the
// jammer's position (fixed roadside unit or attacker vehicle); powerDBm
// is its transmit power; burst and period define the duty cycle (burst
// == period yields constant jamming). The jammer starts stopped.
func (a *Air) AddJammer(id string, pos func() geo.Vec, powerDBm float64, burst, period des.Time) (*Jammer, error) {
	switch {
	case id == "":
		return nil, errors.New("nic: jammer ID must be non-empty")
	case pos == nil:
		return nil, errors.New("nic: jammer position provider is required")
	case burst <= 0:
		return nil, errors.New("nic: jammer burst must be positive")
	case period < burst:
		return nil, fmt.Errorf("nic: jammer period %v shorter than burst %v", period, burst)
	}
	j := &Jammer{
		id:       id,
		air:      a,
		pos:      pos,
		powerDBm: powerDBm,
		burst:    burst,
	}
	j.ticker = des.NewTicker(a.k, period, des.PriorityNormal, j.emit)
	return j, nil
}

// ID returns the jammer's identifier.
func (j *Jammer) ID() string { return j.id }

// Bursts reports the number of emitted bursts.
func (j *Jammer) Bursts() uint64 { return j.bursts }

// Active reports whether the jammer is radiating.
func (j *Jammer) Active() bool { return j.ticker.Running() }

// Start begins jamming immediately.
func (j *Jammer) Start() { j.ticker.Start(j.air.k.Now()) }

// Stop ceases jamming; bursts already on the air complete. No burst
// follows the last one, so its carrier-sense drops are no longer held:
// every radio where it waits on the timeline gets it back as events.
func (j *Jammer) Stop() {
	j.ticker.StopTicker()
	for i := range j.links {
		j.release(&j.links[i])
	}
}

// release hands a held burst's radio timeline back to the kernel.
func (j *Jammer) release(l *jamLink) {
	if l.held {
		l.held = false
		l.dst.settle()
		l.dst.promote()
	}
}

// emit radiates one burst: pure interference at every radio. Like a
// transmission's fan-out, the burst's receptions enter the kernel as one
// batch (see Air.queue); no handler reads a burst, so at a radio whose
// MAC is idle it is lazy. Jamming power is computed eagerly: the guard
// distance covers only data frames.
//
// At a radio whose MAC holds frames, a burst is lazy too when every
// carrier-sense drop it causes is held (Radio.held): when back-to-back
// bursts (burst == period) raise carrier sense there, each begins within
// the shortest AIFS of the previous one's end, at a key already reserved
// when that end is due, since the tick that emits it comes first. The
// attempt a drop starts is then certain to be interrupted, so it is held
// and schedules nothing. The MAC must not wait on a scheduled attempt,
// which no timeline event could interrupt. A burst that breaks the chain
// (not raising carrier sense, too late, or not lazy) first hands the
// radio's timeline back to the kernel at its reserved keys, as Stop does
// for the last burst.
func (j *Jammer) emit() {
	j.bursts++
	a := j.air
	now := a.k.Now()
	srcPos := j.pos()
	elide := a.elides()
	chain := elide && j.burst == j.ticker.Period()
	a.resetLinks()
	for i, dst := range a.radios {
		dist := srcPos.Dist(dst.pos())
		if i == len(j.links) {
			j.links = append(j.links, jamLink{})
		}
		l := &j.links[i]
		if l.dst != dst {
			j.release(l)
			*l = jamLink{dst: dst, dist: -1}
		}
		if l.dist != dist {
			l.dist = dist
			l.powerDBm = j.powerDBm - a.cfg.PathLoss.LossDB(dist, a.cfg.FreqHz)
			l.delay = a.cfg.Delay.Delay(dist)
		}
		if l.held {
			// Nothing observes a radio whose attempts are held, so settle
			// what has passed here: the timeline and the reception pool
			// stay a burst deep. The previous burst ends after this tick
			// and stays, unless a Send or a restore handed the timeline
			// to the kernel, which ends the chain.
			dst.settle()
			l.held = dst.lazyHead < len(dst.lazy)
		}
		rec := a.acquireReception(dst)
		rec.noise = true
		rec.sentAt = now
		rec.start = now.Add(l.delay)
		rec.end = rec.start.Add(j.burst)
		rec.powerDBm = l.powerDBm
		switch {
		case elide && dst.mac.Idle():
			rec.lazy = true
			l.held = false
		case chain && l.powerDBm >= a.cfg.CCAThresholdDBm && !dst.mac.Scheduled() &&
			(!l.held || rec.start-l.heldEnd < mac.MinAIFS):
			rec.lazy = true
			l.held, l.heldEnd = true, rec.end
		default:
			j.release(l)
		}
		a.links = append(a.links, rec)
	}
	a.queue(nil, 0, j.burst)
	a.stats.NoiseBursts++
}
