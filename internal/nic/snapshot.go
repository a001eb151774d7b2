package nic

import (
	"errors"
	"fmt"

	"comfase/internal/mac"
	"comfase/internal/sim/des"
	"comfase/internal/sim/rng"
)

// receptionState is the captured field state of one registered reception.
// The destination radio is stored as an index into the Air's radio list
// (-1 = detached), because the checkpoint must survive the object being
// recycled and rebound in between snapshot and restore.
type receptionState struct {
	frame          mac.Frame
	sentAt         des.Time
	start          des.Time
	end            des.Time
	powerDBm       float64
	powerMw        float64
	mwKnown        bool
	dist           float64
	deferred       bool
	delay          des.Time
	interferenceMw float64
	sensedBusy     bool
	noise          bool
	lazy           bool
	begun          bool
	dst            int32
}

// lazyState is a captured timeline event, its reception as a registry
// index.
type lazyState struct {
	at  des.Time
	seq uint64
	rec int32
	end bool
}

// radioState is the captured mutable state of one radio: transmit window,
// carrier-sense counter, the active reception set (as registry indices),
// the lazy receptions' events still to settle, the backoff stream
// position and the MAC entity state.
type radioState struct {
	txStart des.Time
	txEnd   des.Time
	busy    int
	active  []int32
	lazy    []lazyState
	macRNG  rng.State
	mac     mac.EDCAState
}

// AirState is a restorable snapshot of the shared medium: statistics,
// decider stream position, the field state of every registered reception,
// the reception freelist and the per-radio state. The radio set itself is
// configuration: radios are registered at build time, and only an attack
// installed after the fork point (a Sybil node) adds one. So the set is
// not captured; restore detaches the radios registered after the
// snapshot, as Reset would.
//
// The zero value is ready to use; buffers grow on first SaveState and are
// reused afterwards, so steady-state restore cycles allocate nothing.
type AirState struct {
	stats       Stats
	interceptor Interceptor
	deciderRNG  rng.State
	// numRecs is the registry size at snapshot time. Receptions allocated
	// after the snapshot are unreferenced once the kernel is rewound, so
	// restore returns them to the freelist.
	numRecs int
	recs    []receptionState
	recFree []int32
	radios  []radioState
}

// SaveState captures the medium's mutable state into st, reusing st's
// buffers. It must be paired with a Kernel snapshot taken at the same
// instant: the captured reception set and pending MAC attempts reference
// kernel events by ID.
func (a *Air) SaveState(st *AirState) error {
	st.stats = a.stats
	st.interceptor = a.interceptor
	if err := a.deciderRNG.SaveState(&st.deciderRNG); err != nil {
		return err
	}

	st.numRecs = len(a.allRecs)
	st.recs = st.recs[:0]
	for _, rec := range a.allRecs {
		dst := int32(-1)
		if rec.dst != nil {
			dst = a.radioIndex(rec.dst)
			if dst < 0 {
				return fmt.Errorf("nic: reception bound to unregistered radio %q", rec.dst.id)
			}
		}
		st.recs = append(st.recs, receptionState{
			frame:          rec.frame,
			sentAt:         rec.sentAt,
			start:          rec.start,
			end:            rec.end,
			powerDBm:       rec.powerDBm,
			powerMw:        rec.powerMw,
			mwKnown:        rec.mwKnown,
			dist:           rec.dist,
			deferred:       rec.deferred,
			delay:          rec.delay,
			interferenceMw: rec.interferenceMw,
			sensedBusy:     rec.sensedBusy,
			noise:          rec.noise,
			lazy:           rec.lazy,
			begun:          rec.begun,
			dst:            dst,
		})
	}
	st.recFree = st.recFree[:0]
	for _, rec := range a.recFree {
		st.recFree = append(st.recFree, rec.idx)
	}

	if cap(st.radios) < len(a.radios) {
		st.radios = make([]radioState, len(a.radios))
	}
	st.radios = st.radios[:len(a.radios)]
	for i, r := range a.radios {
		rs := &st.radios[i]
		rs.txStart = r.txStart
		rs.txEnd = r.txEnd
		rs.busy = r.busy
		rs.active = rs.active[:0]
		for _, rec := range r.active {
			rs.active = append(rs.active, rec.idx)
		}
		rs.lazy = rs.lazy[:0]
		for _, ev := range r.lazy[r.lazyHead:] {
			rs.lazy = append(rs.lazy, lazyState{at: ev.at, seq: ev.seq, rec: ev.rec.idx, end: ev.end})
		}
		if err := r.macRNG.SaveState(&rs.macRNG); err != nil {
			return err
		}
		r.mac.SaveState(&rs.mac)
	}
	return nil
}

// LoadState restores state captured by SaveState, in place on the same
// medium. Radios registered after the snapshot are detached into the
// spare pool, from which a re-installed attack recycles them exactly as a
// fresh build would make them. Receptions allocated after the snapshot
// are pushed back onto the freelist: the kernel rewind drops the events
// that referenced them, so recycling them keeps the delivery path
// allocation-free across forked runs.
func (a *Air) LoadState(st *AirState) error {
	if len(st.radios) > len(a.radios) {
		return fmt.Errorf("nic: restore with %d radios, snapshot had %d",
			len(a.radios), len(st.radios))
	}
	if st.numRecs > len(a.allRecs) {
		return errors.New("nic: reception registry shrank since snapshot")
	}
	for _, r := range a.radios[len(st.radios):] {
		delete(a.byID, r.id)
		a.detach(r)
	}
	a.radios = a.radios[:len(st.radios)]
	a.stats = st.stats
	a.interceptor = st.interceptor
	if err := a.deciderRNG.LoadState(&st.deciderRNG); err != nil {
		return err
	}

	for i := 0; i < st.numRecs; i++ {
		rec, rs := a.allRecs[i], &st.recs[i]
		rec.frame = rs.frame
		rec.sentAt = rs.sentAt
		rec.start = rs.start
		rec.end = rs.end
		rec.powerDBm = rs.powerDBm
		rec.powerMw = rs.powerMw
		rec.mwKnown = rs.mwKnown
		rec.dist = rs.dist
		rec.deferred = rs.deferred
		rec.delay = rs.delay
		rec.interferenceMw = rs.interferenceMw
		rec.sensedBusy = rs.sensedBusy
		rec.noise = rs.noise
		rec.lazy = rs.lazy
		rec.begun = rs.begun
		if rs.dst >= 0 {
			rec.dst = a.radios[rs.dst]
		} else {
			rec.dst = nil
		}
	}
	a.recFree = a.recFree[:0]
	for _, idx := range st.recFree {
		a.recFree = append(a.recFree, a.allRecs[idx])
	}
	for i := st.numRecs; i < len(a.allRecs); i++ {
		// Allocated after the snapshot: no restored state references this
		// object, and the kernel rewind dropped its scheduled events.
		a.recycle(a.allRecs[i])
	}

	for i, r := range a.radios {
		rs := &st.radios[i]
		r.txStart = rs.txStart
		r.txEnd = rs.txEnd
		r.busy = rs.busy
		r.active = r.active[:0]
		for _, idx := range rs.active {
			r.active = append(r.active, a.allRecs[idx])
		}
		r.lazy = r.lazy[:0]
		r.lazyHead = 0
		for _, ev := range rs.lazy {
			r.lazy = append(r.lazy, lazyEvent{at: ev.at, seq: ev.seq, rec: a.allRecs[ev.rec], end: ev.end})
		}
		if err := r.macRNG.LoadState(&rs.macRNG); err != nil {
			return err
		}
		r.mac.LoadState(&rs.mac)
	}
	// An event budget set before the kernel restore turns elision off for
	// this run: lazy receptions captured from a run without one become
	// events again, at their keys. So do the jamming bursts held at a MAC
	// holding frames: the jammer that would hold their carrier-sense
	// drops with its next burst is not part of the snapshot.
	budget := a.k.EventBudget() != 0
	for _, r := range a.radios {
		if budget || !r.mac.Idle() {
			r.settle()
			r.promote()
		}
	}
	return nil
}

// radioIndex returns the position of r in the registration order, or -1.
func (a *Air) radioIndex(r *Radio) int32 {
	for i, reg := range a.radios {
		if reg == r {
			return int32(i)
		}
	}
	return -1
}
