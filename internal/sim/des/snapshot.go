package des

import (
	"errors"
	"fmt"
)

// ErrForeignState is returned by Restore when the KernelState was
// captured from a different kernel. Handlers are closures into the
// owning workspace's object graph, so a snapshot is only meaningful
// in-place on the kernel that produced it.
var ErrForeignState = errors.New("des: kernel state belongs to a different kernel")

// KernelState is a restorable snapshot of a Kernel: the slab (including
// handler references), freelist, heap order, generation counters, clock
// and position, sequence counter and executed and settled counts. It is the kernel half of a
// scenario checkpoint.
//
// A KernelState is bound to the kernel that filled it: Snapshot records
// the owner and Restore refuses state from any other kernel, because the
// stored handlers are closures into that kernel's workspace. The zero
// value is ready to use; buffers grow on first Snapshot and are reused
// afterwards, so steady-state Snapshot/Restore cycles allocate nothing.
type KernelState struct {
	owner      *Kernel
	now        Time
	prio       Priority
	seq        uint64
	nextSeq    uint64
	executed   uint64
	settled    uint64
	sinceCheck uint64
	slab       []event
	free       []int32
	heap       []int32
}

// Owner returns the kernel this state was captured from (nil before the
// first Snapshot).
func (s *KernelState) Owner() *Kernel { return s.owner }

// Snapshot copies the kernel's complete scheduling state into s,
// reusing s's buffers. The interrupt check, poll granularity and event
// budget are runtime knobs, not simulation state: they are deliberately
// NOT captured, so the caller re-applies them per run (exactly like the
// fresh-build path) before calling Restore.
func (k *Kernel) Snapshot(into *KernelState) {
	if k.m != nil {
		k.m.Snapshots.Inc()
	}
	into.owner = k
	into.now = k.now
	into.prio = k.prio
	into.seq = k.seq
	into.nextSeq = k.nextSeq
	into.executed = k.executed
	into.settled = k.settled
	into.sinceCheck = k.sinceCheck
	into.slab = append(into.slab[:0], k.slab...)
	into.free = append(into.free[:0], k.free...)
	into.heap = append(into.heap[:0], k.heap...)
}

// Restore rewinds the kernel to the snapshot: clock, sequence counter,
// executed count, slab contents (generations included) and heap order
// all return to their captured values, so a restored kernel replays the
// exact event sequence a fresh run would produce from that point.
//
// Restore is only valid in-place on the kernel that produced the state
// (ErrForeignState otherwise). Slots allocated after the snapshot vanish;
// EventIDs issued after the snapshot become permanently stale (the slot
// range check or the restored generation rejects them), and IDs that were
// live at snapshot time validate again. Callers must not retain
// post-snapshot EventIDs anywhere outside state that is itself restored.
//
// The interrupt check, poll granularity and event budget are left
// untouched except for the poll phase (sinceCheck), which is restored so
// budget and cancellation abort points stay deterministic across the
// checkpointed and fresh paths. Re-apply the runtime knobs BEFORE calling
// Restore: SetInterruptCheck zeroes the poll phase.
func (k *Kernel) Restore(from *KernelState) error {
	if from.owner == nil {
		return errors.New("des: restore from empty kernel state")
	}
	if from.owner != k {
		return fmt.Errorf("%w", ErrForeignState)
	}
	if k.m != nil {
		k.m.Restores.Inc()
		// Rewinding executed below the flushed watermark must not make
		// the next flush delta negative: the prefix's events were already
		// reported, so reporting resumes from the restored count.
		if k.reported > from.executed {
			k.reported = from.executed
		}
	}
	// Slots of a batch left open (by a handler that panicked mid-fan-out)
	// vanish with the slab below; the batch goes with them.
	k.batch = k.batch[:0]
	k.batching = false
	k.now = from.now
	k.prio = from.prio
	k.seq = from.seq
	k.nextSeq = from.nextSeq
	k.executed = from.executed
	k.settled = from.settled
	k.sinceCheck = from.sinceCheck
	k.stopped = false
	k.slab = append(k.slab[:0], from.slab...)
	k.free = append(k.free[:0], from.free...)
	k.heap = append(k.heap[:0], from.heap...)
	return nil
}

// TickerState is a restorable snapshot of a Ticker's mutable state (the
// pending event ID and running flag); configuration fields are stable
// across a checkpointed group and are not captured.
type TickerState struct {
	Next    EventID
	Running bool
}

// SaveState captures the ticker's mutable state.
func (t *Ticker) SaveState() TickerState {
	return TickerState{Next: t.next, Running: t.running}
}

// LoadState restores state captured by SaveState. Only meaningful
// together with a Kernel.Restore to the matching snapshot: the saved
// event ID validates again once the kernel's generations are rewound.
func (t *Ticker) LoadState(s TickerState) {
	t.next = s.Next
	t.running = s.Running
}
