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
	dst            int32
}

// radioState is the captured mutable state of one radio: transmit window,
// carrier-sense counter, the active reception set (as registry indices),
// the backoff stream position and the MAC entity state.
type radioState struct {
	txStart des.Time
	txEnd   des.Time
	busy    int
	active  []int32
	macRNG  rng.State
	mac     mac.EDCAState
}

// AirState is a restorable snapshot of the shared medium: statistics,
// decider stream position, the field state of every registered reception,
// the reception freelist and the per-radio state. The radio set itself is
// configuration — radios are registered at build time and a checkpointed
// experiment group never adds or removes them — so it is validated, not
// captured.
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
			dst:            dst,
		})
	}
	st.recFree = st.recFree[:0]
	for _, rec := range a.recFree {
		st.recFree = append(st.recFree, a.recIndex[rec])
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
			rs.active = append(rs.active, a.recIndex[rec])
		}
		if err := r.macRNG.SaveState(&rs.macRNG); err != nil {
			return err
		}
		r.mac.SaveState(&rs.mac)
	}
	return nil
}

// LoadState restores state captured by SaveState, in place on the same
// medium with the same registered radio set. Receptions allocated after
// the snapshot are pushed back onto the freelist: the kernel rewind drops
// the events that referenced them, so recycling them keeps the delivery
// path allocation-free across forked runs.
func (a *Air) LoadState(st *AirState) error {
	if len(st.radios) != len(a.radios) {
		return fmt.Errorf("nic: restore with %d radios, snapshot had %d",
			len(a.radios), len(st.radios))
	}
	if st.numRecs > len(a.allRecs) {
		return errors.New("nic: reception registry shrank since snapshot")
	}
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
		rec := a.allRecs[i]
		rec.frame = mac.Frame{}
		rec.dst = nil
		a.recFree = append(a.recFree, rec)
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
		if err := r.macRNG.LoadState(&rs.macRNG); err != nil {
			return err
		}
		r.mac.LoadState(&rs.mac)
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
