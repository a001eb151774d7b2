package mac

import "comfase/internal/sim/des"

// EDCAState is a restorable snapshot of an EDCA entity's mutable state:
// queue contents, per-AC backoff, carrier-sense and transmit flags, the
// pending attempt event and the counters. Configuration (kernel, RNG,
// schedule, hooks) is stable across a checkpointed experiment group and
// is not captured; the backoff RNG stream is snapshotted separately by
// the radio that owns it.
//
// The zero value is ready to use; queue buffers grow on first SaveState
// and are reused afterwards.
type EDCAState struct {
	queues       [numAC][]Frame
	backoff      [numAC]int
	busy         bool
	transmitting bool
	attempt      des.EventID
	deferAC      AccessCategory
	deferStart   des.Time
	stats        Stats
}

// SaveState captures the entity's mutable state into st, reusing st's
// queue buffers. Ring contents are serialised in queue order (head
// first), so the snapshot is independent of where the ring's head
// happens to sit.
func (m *EDCA) SaveState(st *EDCAState) {
	for i := range m.acs {
		ac := &m.acs[i]
		q := st.queues[i][:0]
		for j := 0; j < ac.count; j++ {
			q = append(q, ac.ring[(ac.head+j)%len(ac.ring)])
		}
		st.queues[i] = q
		st.backoff[i] = ac.backoff
	}
	st.busy = m.busy
	st.transmitting = m.transmitting
	st.attempt = m.attempt
	st.deferAC = m.deferAC
	st.deferStart = m.deferStart
	st.stats = m.stats
}

// LoadState restores state captured by SaveState. The saved attempt
// EventID is only meaningful together with a Kernel.Restore to the
// matching snapshot, which rewinds the generation counters that make it
// valid again; a held attempt (des.Unqueued) has no event and restores
// as it was. Each ring is rebuilt with head 0; only queue order
// matters for determinism, not the head index, so a restored entity
// replays identically to the captured one.
func (m *EDCA) LoadState(st *EDCAState) {
	m.queued = 0
	for i := range m.acs {
		ac := &m.acs[i]
		for j := range ac.ring {
			ac.ring[j] = Frame{}
		}
		copy(ac.ring, st.queues[i])
		ac.head = 0
		ac.count = len(st.queues[i])
		ac.backoff = st.backoff[i]
		m.queued += ac.count
	}
	m.busy = st.busy
	m.transmitting = st.transmitting
	m.attempt = st.attempt
	m.deferAC = st.deferAC
	m.deferStart = st.deferStart
	m.stats = st.stats
}
