package des

import (
	"errors"
	"fmt"
	"math"
)

// Handler is the callback invoked when a scheduled event fires. It runs at
// the event's time stamp; Kernel.Now() reports that time stamp for the
// duration of the call.
type Handler func()

// Priority orders events that share the same time stamp: lower values run
// first. Within one (time, priority) bucket, events run in insertion
// order (FIFO), which keeps simulations deterministic. It is 32 bits wide
// so an event slot packs into 40 bytes (TestEventSlotSize).
type Priority int32

// Well-known priorities. Most modules use PriorityNormal; the traffic
// stepper runs late in each tick so that all radio frames delivered "at"
// a step boundary are visible to the controllers evaluated in that step.
const (
	PriorityFirst  Priority = -100
	PriorityNormal Priority = 0
	PriorityLast   Priority = 100
)

// EventID identifies a scheduled event for cancellation. The zero value
// is never a valid ID.
//
// An ID packs the event's slab slot (upper 32 bits, biased by one) and
// the slot's generation counter (lower 32 bits). Cancel validates both,
// so a stale ID — the event fired, was canceled, or the kernel was Reset
// — can never affect the slot's current occupant. This replaces the old
// id->event map: schedule and cancel do no map traffic at all.
type EventID uint64

// makeEventID packs a slot index and generation into an EventID.
func makeEventID(slot int32, gen uint32) EventID {
	return EventID(uint64(slot)+1)<<32 | EventID(gen)
}

// split unpacks the ID. slot is -1 for the zero (invalid) ID.
func (id EventID) split() (slot int64, gen uint32) {
	return int64(id>>32) - 1, uint32(id)
}

// ErrStopped is returned by Run/RunUntil when the kernel was stopped via
// Stop before the time limit or queue exhaustion was reached.
var ErrStopped = errors.New("des: kernel stopped")

// ErrBudgetExceeded is returned (wrapped) by Run/RunUntil when the
// kernel's event budget (SetEventBudget) is exhausted — the deterministic
// watchdog that catches infinite event loops without relying on
// wall-clock timers.
var ErrBudgetExceeded = errors.New("des: event budget exceeded")

// DefaultInterruptEvery is the interrupt-poll granularity used when
// SetInterruptCheck is called with every == 0. At the paper scenario's
// event rate (~100k events per simulated minute) this bounds cancellation
// latency to a few milliseconds of wall-clock time while keeping the
// per-event cost of the hot loop at a single integer increment.
const DefaultInterruptEvery = 4096

// event is a slab slot. Cancellation is implemented by flagging: the
// entry stays queued and is recycled when popped. A slot is free (on the
// freelist), pending (queued) or canceled (queued, flagged); gen
// increments every time the slot is recycled, invalidating all
// previously issued IDs for it.
//
// A queued slot is either in the heap or behind another slot in a batch
// chain (see BeginBatch): next links a chain in (at, prio, seq) order,
// and only a chain's head sits in the heap.
type event struct {
	at       Time
	seq      uint64 // insertion order, tie-break within (at, prio)
	fn       Handler
	prio     Priority
	gen      uint32
	next     int32 // successor slot in the event's batch chain, or noSlot
	canceled bool
}

// noSlot ends a batch chain.
const noSlot int32 = -1

// batchKey is an open batch member's ordering key, held inline so
// EndBatch sorts without reading the slab. It carries no seq: BatchAt
// assigns sequence numbers in call order, so only a tie in (at, prio)
// reads the slab's seq, which a reserved key (BatchReserved) needs.
type batchKey struct {
	at   Time
	prio Priority
	slot int32
}

// batchBefore orders batch keys by (at, prio, seq).
func (k *Kernel) batchBefore(a, b *batchKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return k.slab[a.slot].seq < k.slab[b.slot].seq
}

// Extreme priorities and sequence numbers bound the kernel's position
// (see Passed).
const (
	minPriority Priority = math.MinInt32
	maxPriority Priority = math.MaxInt32
	maxSeq      uint64   = math.MaxUint64
)

// Kernel is a single-threaded discrete-event scheduler. The zero value is
// ready to use, but create kernels with NewKernel for symmetry with the
// rest of the stack. Kernels are not safe for concurrent use — all
// scheduling must happen from event handlers or from the goroutine
// driving Run/RunUntil, exactly as in OMNeT++.
//
// Event storage is a slab with a freelist: steady-state scheduling
// performs zero heap allocations (pinned by TestKernelScheduleZeroAllocs)
// because popped slots are recycled in place and the binary heap orders
// int32 slot indices, never boxed values. A burst of events scheduled
// together — a radio broadcast's whole fan-out — can enter the queue as
// one sorted chain behind a single heap entry (BeginBatch).
type Kernel struct {
	// The pads keep the fields the event loop writes on every event off
	// the cache lines of neighbouring objects: the kernels of concurrent
	// campaign workers are allocated side by side, and sharing a line
	// cost a 2-worker paper-delay campaign about 30% of its CPU time.
	_       [128]byte
	now     Time
	slab    []event // slot storage; grows on demand, never shrinks
	free    []int32 // recycled slot indices (LIFO)
	heap    []int32 // min-heap of slots (chain heads) ordered by (at, prio, seq)
	nextSeq uint64
	// batch holds the keys of the open batch (BeginBatch..EndBatch);
	// batching reports whether one is open.
	batch    []batchKey
	batching bool
	stopped  bool
	// executed counts delivered (non-canceled) events, exposed for
	// statistics and benchmarks; settled counts the part of it that a
	// component settled off the queue (CountSettled).
	executed uint64
	settled  uint64
	// prio and seq complete the kernel's position (now, prio, seq): the
	// greatest key dispatched so far, or (limit, maxPriority, maxSeq) once
	// RunUntil(limit) ran out of events (see Passed).
	prio Priority
	seq  uint64
	// pause, when non-nil, runs whenever Run or RunUntil returns (see
	// SetPauseHook).
	pause func(drain bool)

	// interrupt, when non-nil, is polled every checkEvery executed events
	// during Run/RunUntil; a non-nil return aborts the run with that
	// error. This is the cooperative-cancellation hook that lets a
	// context.Context stop a long simulation without per-event overhead.
	interrupt  func() error
	checkEvery uint64
	sinceCheck uint64
	// budget, when non-zero, bounds the number of delivered events per
	// run; it is enforced on the same poll cadence as the interrupt
	// check, so the hot loop pays nothing extra for it.
	budget uint64

	// m, when non-nil, receives event/snapshot/restore counts; reported
	// tracks how much of executed has been flushed into m.Events. Deltas
	// flush when Run/RunUntil return, never per event (see metrics.go).
	m        *Metrics
	reported uint64

	_ [128]byte
}

// NewKernel returns an empty kernel with the clock at t=0.
func NewKernel() *Kernel { return &Kernel{prio: minPriority} }

// Reset returns the kernel to its initial state — clock at t=0, no
// pending events, counters cleared, interrupt check, event budget and
// pause hook removed — without
// releasing the slab, freelist or heap storage. A Reset kernel behaves
// exactly like a fresh NewKernel (same seq numbering, hence the same
// deterministic tie-breaking), which is what lets campaign workers reuse
// one kernel across thousands of experiments. Event IDs issued before the
// Reset are invalidated: every live slot's generation is bumped, so a
// stale Cancel can never hit a post-Reset event.
func (k *Kernel) Reset() {
	for _, head := range k.heap {
		for slot := head; slot != noSlot; {
			next := k.slab[slot].next
			k.release(slot)
			slot = next
		}
	}
	k.heap = k.heap[:0]
	for _, e := range k.batch {
		k.release(e.slot)
	}
	k.batch = k.batch[:0]
	k.batching = false
	k.now = 0
	k.nextSeq = 0
	k.executed = 0
	k.settled = 0
	k.prio = minPriority
	k.seq = 0
	k.pause = nil
	k.stopped = false
	k.interrupt = nil
	k.checkEvery = 0
	k.sinceCheck = 0
	k.budget = 0
	k.m = nil
	k.reported = 0
}

// Now reports the current simulation time. During an event handler this
// is the handler's scheduled time stamp.
func (k *Kernel) Now() Time { return k.now }

// Executed reports how many events have been delivered so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending reports how many events are queued, including canceled entries
// that have not been popped yet and events behind a batch chain's head.
// Every slot is either free or queued, so this is the slab's occupancy.
func (k *Kernel) Pending() int { return len(k.slab) - len(k.free) }

// less orders the heap by (at, prio, seq).
func (k *Kernel) less(a, b int32) bool {
	ea, eb := &k.slab[a], &k.slab[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	if ea.prio != eb.prio {
		return ea.prio < eb.prio
	}
	return ea.seq < eb.seq
}

// heapPush inserts a slot into the heap.
func (k *Kernel) heapPush(slot int32) {
	k.heap = append(k.heap, slot)
	i := len(k.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(k.heap[i], k.heap[parent]) {
			break
		}
		k.heap[i], k.heap[parent] = k.heap[parent], k.heap[i]
		i = parent
	}
}

// pop removes and returns the heap's root, the earliest queued slot.
// The heap must be non-empty. A chained root hands its heap entry to its
// successor, which is no earlier, so one sift-down restores the heap —
// usually after one level, since a fan-out's events are close together.
func (k *Kernel) pop() int32 {
	h := k.heap
	root := h[0]
	if next := k.slab[root].next; next != noSlot {
		h[0] = next
	} else {
		n := len(h) - 1
		h[0] = h[n]
		k.heap = h[:n]
	}
	k.siftDown(0)
	return root
}

// siftDown restores the heap property from index i downward.
func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && k.less(h[r], h[l]) {
			min = r
		}
		if !k.less(h[min], h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// alloc takes a slot from the freelist or grows the slab.
func (k *Kernel) alloc() int32 {
	if n := len(k.free); n > 0 {
		slot := k.free[n-1]
		k.free = k.free[:n-1]
		return slot
	}
	k.slab = append(k.slab, event{})
	return int32(len(k.slab) - 1)
}

// release recycles a popped slot: the handler reference is dropped so the
// slab does not retain closures, and the generation bump invalidates all
// outstanding IDs for the slot.
func (k *Kernel) release(slot int32) {
	ev := &k.slab[slot]
	ev.fn = nil
	ev.canceled = false
	ev.gen++
	k.free = append(k.free, slot)
}

// ScheduleAt schedules fn to run at the absolute time at with normal
// priority. Scheduling in the past is clamped to Now: the event fires at
// the current time, after all already-queued events for that time.
func (k *Kernel) ScheduleAt(at Time, fn Handler) EventID {
	return k.ScheduleAtPrio(at, PriorityNormal, fn)
}

// ScheduleAtPrio schedules fn at time at with an explicit priority.
func (k *Kernel) ScheduleAtPrio(at Time, prio Priority, fn Handler) EventID {
	slot, id := k.newEvent(at, prio, fn)
	k.heapPush(slot)
	return id
}

// newEvent fills a slot with fn at (at, prio), clamping a past time to
// Now, and takes the next sequence number. The caller queues the slot.
func (k *Kernel) newEvent(at Time, prio Priority, fn Handler) (int32, EventID) {
	if at < k.now {
		at = k.now
	}
	slot := k.alloc()
	ev := &k.slab[slot]
	ev.at = at
	ev.prio = prio
	ev.seq = k.nextSeq
	ev.fn = fn
	ev.next = noSlot
	k.nextSeq++
	return slot, makeEventID(slot, ev.gen)
}

// BeginBatch opens a batch: events added with BatchAt until EndBatch
// enter the queue as one chain sorted by (at, prio, seq) behind a single
// heap entry, and dispatching a chained event hands that entry to its
// successor instead of popping and re-sifting. BatchAt assigns sequence
// numbers in call order, as ScheduleAt would, and every pop takes the
// least key among the heap's entries, so merging the chains yields the
// order plain scheduling would: dispatch order, Executed, event budgets
// and abort points are unchanged (FuzzBatchOrder). ScheduleAt calls made
// while a batch is open queue as usual. Close a batch before the handler
// that opened it returns; batches do not nest.
func (k *Kernel) BeginBatch() {
	if k.batching {
		panic("des: BeginBatch inside an open batch")
	}
	k.batching = true
}

// BatchAt adds fn at time at with priority prio to the open batch and
// returns its ID. Like ScheduleAtPrio it clamps a past time to Now, and
// the ID cancels the event like any other.
func (k *Kernel) BatchAt(at Time, prio Priority, fn Handler) EventID {
	if !k.batching {
		panic("des: BatchAt outside BeginBatch/EndBatch")
	}
	slot, id := k.newEvent(at, prio, fn)
	ev := &k.slab[slot]
	k.batch = append(k.batch, batchKey{at: ev.at, prio: prio, slot: slot})
	return id
}

// EndBatch closes the open batch: its events are sorted by their inline
// keys, linked into a chain and queued behind one heap entry. The sort
// is a binary insertion sort — stable, and cheap for a fan-out's few
// dozen keys: a key already in place costs one comparison, and the
// others a binary search and a shift. The shift is a plain loop: a
// memmove call costs more than the few moves of a small fan-out.
func (k *Kernel) EndBatch() {
	if !k.batching {
		panic("des: EndBatch without BeginBatch")
	}
	k.batching = false
	b := k.batch
	if len(b) == 0 {
		return
	}
	for i := 1; i < len(b); i++ {
		e := b[i]
		if !k.batchBefore(&e, &b[i-1]) {
			continue
		}
		// Insert after every key before this one; b[i-1] is after it.
		lo, hi := 0, i-1
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); k.batchBefore(&e, &b[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		for j := i; j > lo; j-- {
			b[j] = b[j-1]
		}
		b[lo] = e
	}
	for i := 0; i+1 < len(b); i++ {
		k.slab[b[i].slot].next = b[i+1].slot
	}
	k.heapPush(b[0].slot)
	k.batch = b[:0]
}

// Reserve takes the next sequence number without queueing an event, as
// if an event had been scheduled and set aside. A component that keeps
// work off the queue reserves the key that work's event would have
// taken: it either settles the work itself, in key order, once the
// kernel's position has passed the key (Passed, CountSettled), or hands
// it back with BatchReserved before then. Either way every other event
// keeps the key plain scheduling would have given it. Work kept this way
// must schedule nothing, and its key must not have passed when it is
// reserved: check Passed(at, prio, math.MaxUint64) first, and schedule
// the work as an event if that reports true.
func (k *Kernel) Reserve() uint64 {
	s := k.nextSeq
	k.nextSeq++
	return s
}

// BatchReserved adds fn to the open batch at (at, prio, seq), where seq
// came from Reserve and the key has not been passed yet. EndBatch orders
// it among the batch by its full key.
func (k *Kernel) BatchReserved(at Time, prio Priority, seq uint64, fn Handler) EventID {
	if !k.batching {
		panic("des: BatchReserved outside BeginBatch/EndBatch")
	}
	if seq >= k.nextSeq || k.Passed(at, prio, seq) {
		panic("des: BatchReserved with a key that was not reserved or has passed")
	}
	slot := k.alloc()
	ev := &k.slab[slot]
	ev.at = at
	ev.prio = prio
	ev.seq = seq
	ev.fn = fn
	ev.next = noSlot
	k.batch = append(k.batch, batchKey{at: at, prio: prio, slot: slot})
	return makeEventID(slot, ev.gen)
}

// Passed reports whether the key (at, prio, seq) orders before the
// kernel's position: the greatest key dispatched so far, or, once
// RunUntil(limit) ran out of events, every key at or before limit. Plain
// scheduling would have dispatched a reserved key that has passed, so
// work kept off the queue under it is due. The position never moves
// back, not even for a handler that schedules at Now with a lower
// priority than its own.
func (k *Kernel) Passed(at Time, prio Priority, seq uint64) bool {
	if at != k.now {
		return at < k.now
	}
	if prio != k.prio {
		return prio < k.prio
	}
	return seq < k.seq
}

// CountSettled counts n events that a component settled off the queue
// (see Reserve) as delivered: they add to Executed and to the metrics'
// event count, and advance the interrupt poll phase as dispatching them
// would have. The poll itself runs only at dispatched events, so a
// component must not settle events while an event budget is set.
func (k *Kernel) CountSettled(n uint64) {
	k.executed += n
	k.settled += n
	if k.interrupt != nil || k.budget != 0 {
		every := k.checkEvery
		if every == 0 {
			every = DefaultInterruptEvery
		}
		k.sinceCheck = (k.sinceCheck + n) % every
	}
}

// Settled reports how many of the Executed events were settled off the
// queue; the rest were dispatched.
func (k *Kernel) Settled() uint64 { return k.settled }

// SetPauseHook installs fn (nil removes it) to run whenever Run or
// RunUntil returns, after the clock and position are final and before
// the metrics flush: a component that keeps work off the queue settles
// what is due there (drain false). When Run finds the queue empty it
// first calls fn with drain true, which must queue all remaining work
// (BatchReserved), and goes on if any was queued. Like the interrupt
// check it is wiring, not simulation state: Reset removes it and
// snapshots do not capture it.
func (k *Kernel) SetPauseHook(fn func(drain bool)) { k.pause = fn }

// paused runs the pause hook, if any, with drain false.
func (k *Kernel) paused() {
	if k.pause != nil {
		k.pause(false)
	}
}

// ScheduleAfter schedules fn to run after the given delay relative to the
// current simulation time. Negative delays are clamped to zero.
func (k *Kernel) ScheduleAfter(delay Time, fn Handler) EventID {
	return k.ScheduleAt(k.now.Add(delay), fn)
}

// ScheduleAfterPrio schedules fn after delay with an explicit priority.
func (k *Kernel) ScheduleAfterPrio(delay Time, prio Priority, fn Handler) EventID {
	return k.ScheduleAtPrio(k.now.Add(delay), prio, fn)
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if it already fired, was canceled, never existed, or
// predates a Reset).
func (k *Kernel) Cancel(id EventID) bool {
	slot, gen := id.split()
	if slot < 0 || slot >= int64(len(k.slab)) {
		return false
	}
	ev := &k.slab[slot]
	if ev.gen != gen || ev.canceled || ev.fn == nil {
		return false
	}
	ev.canceled = true
	return true
}

// Stop makes the currently running Run/RunUntil return ErrStopped after
// the current handler completes. Pending events remain queued.
func (k *Kernel) Stop() { k.stopped = true }

// SetInterruptCheck installs fn as a cooperative interrupt, polled every
// `every` executed events during Run/RunUntil (every == 0 selects
// DefaultInterruptEvery). When fn returns a non-nil error the run aborts
// after the current handler completes and that error is returned; pending
// events remain queued, exactly as with Stop. A nil fn removes the check.
// Typical use wires a context.Context without per-event overhead:
//
//	k.SetInterruptCheck(0, func() error { return ctx.Err() })
func (k *Kernel) SetInterruptCheck(every uint64, fn func() error) {
	if fn == nil {
		k.interrupt = nil
		k.checkEvery = 0
		k.sinceCheck = 0
		return
	}
	if every == 0 {
		every = DefaultInterruptEvery
	}
	k.interrupt = fn
	k.checkEvery = every
	k.sinceCheck = 0
}

// SetEventBudget bounds the number of delivered events per run: once
// Executed() reaches max, Run/RunUntil abort with an error wrapping
// ErrBudgetExceeded. max == 0 removes the budget. The check shares the
// interrupt-poll cadence (SetInterruptCheck's granularity, or
// DefaultInterruptEvery when no interrupt check is installed), so for a
// fixed cadence the abort point is deterministic — the watchdog that
// catches a runaway event loop identically on every run, which
// wall-clock timers cannot.
func (k *Kernel) SetEventBudget(max uint64) {
	k.budget = max
}

// EventBudget reports the configured budget (0 = unlimited).
func (k *Kernel) EventBudget() uint64 { return k.budget }

// pollInterrupt counts executed events and invokes the budget and
// interrupt checks at the configured granularity.
func (k *Kernel) pollInterrupt() error {
	if k.interrupt == nil && k.budget == 0 {
		return nil
	}
	every := k.checkEvery
	if every == 0 {
		every = DefaultInterruptEvery
	}
	k.sinceCheck++
	if k.sinceCheck < every {
		return nil
	}
	k.sinceCheck = 0
	if k.budget != 0 && k.executed >= k.budget {
		return fmt.Errorf("des: %d events delivered (budget %d) at %v: %w",
			k.executed, k.budget, k.now, ErrBudgetExceeded)
	}
	if k.interrupt == nil {
		return nil
	}
	return k.interrupt()
}

// step pops and executes the next live event if its time stamp is at
// most limit. It reports false when the queue holds no such event.
// Canceled events reaching the root are recycled on the way, chained or
// not; a chained event's successor has already taken its place. The slot
// is recycled before the handler runs, so a handler that schedules
// immediately reuses it (with a fresh generation).
func (k *Kernel) step(limit Time) bool {
	for len(k.heap) > 0 {
		slot := k.heap[0]
		ev := &k.slab[slot]
		if ev.canceled {
			k.release(k.pop())
			continue
		}
		if ev.at > limit {
			return false
		}
		k.pop()
		fn := ev.fn
		if ev.at != k.now || ev.prio > k.prio || ev.prio == k.prio && ev.seq > k.seq {
			k.prio, k.seq = ev.prio, ev.seq
		}
		k.now = ev.at
		k.executed++
		k.release(slot)
		fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty, Stop is called, or the
// interrupt check (SetInterruptCheck) reports an error.
func (k *Kernel) Run() error {
	defer k.flushMetrics()
	defer k.paused()
	k.stopped = false
	for !k.stopped {
		if !k.step(MaxTime) {
			if k.pause == nil {
				return nil
			}
			k.pause(true)
			if len(k.heap) == 0 {
				return nil
			}
			continue
		}
		if err := k.pollInterrupt(); err != nil {
			return err
		}
	}
	return ErrStopped
}

// RunUntil executes events with time stamps strictly before or at limit,
// then advances the clock to limit and returns. Events scheduled exactly
// at limit DO fire — this matches Algorithm 1's SimUntil semantics where
// the attack window [start, end] is inclusive of its boundaries. If the
// queue empties earlier, the clock still advances to limit. An interrupt
// check installed via SetInterruptCheck aborts the run with its error,
// leaving the clock at the last executed event so the caller can observe
// how far the run progressed.
func (k *Kernel) RunUntil(limit Time) error {
	if limit < k.now {
		return fmt.Errorf("des: RunUntil(%v) is in the past (now %v)", limit, k.now)
	}
	defer k.flushMetrics()
	defer k.paused()
	k.stopped = false
	for !k.stopped {
		if !k.step(limit) {
			k.now, k.prio, k.seq = limit, maxPriority, maxSeq
			return nil
		}
		if err := k.pollInterrupt(); err != nil {
			return err
		}
	}
	return ErrStopped
}

// peek reports the time stamp of the next live event, discarding canceled
// entries along the way. ok is false when the queue is empty.
func (k *Kernel) peek() (at Time, ok bool) {
	for len(k.heap) > 0 {
		ev := &k.slab[k.heap[0]]
		if !ev.canceled {
			return ev.at, true
		}
		k.release(k.pop())
	}
	return 0, false
}

// NextEventAt reports the time stamp of the next live event, or MaxTime
// when the queue is empty.
func (k *Kernel) NextEventAt() Time {
	at, ok := k.peek()
	if !ok {
		return MaxTime
	}
	return at
}
