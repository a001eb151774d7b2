package des

import (
	"fmt"
	"testing"
	"unsafe"
)

// The slab slot stays at 40 bytes: a campaign's DoS cell holds tens of
// thousands of queued events, each copied into every checkpoint
// snapshot, so the chain link must not grow the slot.
func TestEventSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Fatalf("event slot is %d bytes, want 40", got)
	}
}

// batchTwin drives two kernels with one operation stream: batched queues
// a batch as one chain, plain schedules the same events one by one with
// ScheduleAtPrio. Handlers log "<tag>" into their kernel's log and may
// spawn a follow-up batch, so chains are also built from inside handlers.
type batchTwin struct {
	t              *testing.T
	batched, plain *Kernel
	logB, logP     []string
	idsB, idsP     []EventID
	stB, stP       KernelState
	haveSnap       bool
	snapIDs        int // len(idsB) at the snapshot
}

func newBatchTwin(t *testing.T) *batchTwin {
	return &batchTwin{t: t, batched: NewKernel(), plain: NewKernel()}
}

// handler returns the event body for one kernel. A non-negative tag
// divisible by 5 spawns a two-event follow-up batch (negative tags, which
// spawn nothing) when it fires.
func (w *batchTwin) handler(batched bool, tag int) Handler {
	return func() {
		k, log := w.plain, &w.logP
		if batched {
			k, log = w.batched, &w.logB
		}
		*log = append(*log, fmt.Sprint(tag))
		if tag >= 0 && tag%5 == 0 {
			w.queue(batched, []batchEvent{
				{at: k.Now().Add(Time(tag%3) * Millisecond), prio: Priority(tag%3 - 1), tag: -1 - tag},
				{at: k.Now(), prio: PriorityNormal, tag: -100000 - tag},
			})
		}
	}
}

type batchEvent struct {
	at   Time
	prio Priority
	tag  int
}

// queue schedules evs on one kernel, as a batch or as plain events.
func (w *batchTwin) queue(batched bool, evs []batchEvent) []EventID {
	ids := make([]EventID, 0, len(evs))
	if batched {
		k := w.batched
		k.BeginBatch()
		for _, ev := range evs {
			ids = append(ids, k.BatchAt(ev.at, ev.prio, w.handler(true, ev.tag)))
		}
		k.EndBatch()
		return ids
	}
	for _, ev := range evs {
		ids = append(ids, w.plain.ScheduleAtPrio(ev.at, ev.prio, w.handler(false, ev.tag)))
	}
	return ids
}

// check fails unless both kernels are observably identical.
func (w *batchTwin) check(step int) {
	w.t.Helper()
	b, p := w.batched, w.plain
	if fmt.Sprint(w.logB) != fmt.Sprint(w.logP) {
		w.t.Fatalf("step %d: dispatch order differs:\nbatched %v\nplain   %v", step, w.logB, w.logP)
	}
	if b.Now() != p.Now() || b.Executed() != p.Executed() || b.Pending() != p.Pending() {
		w.t.Fatalf("step %d: batched now=%v executed=%d pending=%d, plain now=%v executed=%d pending=%d",
			step, b.Now(), b.Executed(), b.Pending(), p.Now(), p.Executed(), p.Pending())
	}
}

// FuzzBatchOrder is the chain's exactness oracle: one byte program runs on
// a kernel that queues bursts as batch chains and on one that schedules
// the same events with plain ScheduleAtPrio. Across scheduling, batches,
// cancels (chain members included), RunUntil, event-budget aborts,
// snapshot/restore mid-chain and Reset, both must dispatch the identical
// handler sequence and agree on Now, Executed and Pending.
func FuzzBatchOrder(f *testing.F) {
	f.Add([]byte{1, 6, 3, 0, 1, 2, 5, 9, 4, 3})
	f.Add([]byte{1, 15, 0, 2, 1, 5, 2, 3, 3, 1, 2, 9})
	f.Add([]byte{1, 7, 4, 0, 3, 2, 5, 0, 3, 50})
	f.Add([]byte{0, 4, 1, 3, 7, 2, 3, 200, 6, 0, 1, 4, 3, 9})
	f.Add([]byte{1, 31, 2, 0, 2, 1, 2, 2, 4, 0, 3, 1, 5, 0, 3, 255})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 512 {
			program = program[:512]
		}
		w := newBatchTwin(t)
		tag := 0
		for i := 0; i+1 < len(program); i += 2 {
			op, arg := program[i]%8, program[i+1]
			switch op {
			case 0: // one plain event on both kernels
				at := w.plain.Now().Add(Time(arg%4) * Millisecond)
				prio := Priority(arg/4%3) - 1
				w.idsB = append(w.idsB, w.batched.ScheduleAtPrio(at, prio, w.handler(true, tag)))
				w.idsP = append(w.idsP, w.plain.ScheduleAtPrio(at, prio, w.handler(false, tag)))
				tag++
			case 1: // a burst, its times and priorities drawn from the program
				n := int(arg%32) + 1
				evs := make([]batchEvent, 0, n)
				for j := 0; j < n; j++ {
					b := program[(i+2+j)%len(program)]
					evs = append(evs, batchEvent{
						at:   w.plain.Now().Add(Time(b%5)*Millisecond - Millisecond),
						prio: Priority(b/5%3) - 1,
						tag:  tag,
					})
					tag++
				}
				w.idsB = append(w.idsB, w.queue(true, evs)...)
				w.idsP = append(w.idsP, w.queue(false, evs)...)
			case 2: // cancel a (possibly fired or stale) event
				if len(w.idsB) > 0 {
					j := int(arg) % len(w.idsB)
					cb, cp := w.batched.Cancel(w.idsB[j]), w.plain.Cancel(w.idsP[j])
					if cb != cp {
						t.Fatalf("step %d: Cancel = %v batched, %v plain", i, cb, cp)
					}
				}
			case 3: // run until arg past now
				limit := w.plain.Now().Add(Time(arg%16) * Millisecond)
				eb, ep := w.batched.RunUntil(limit), w.plain.RunUntil(limit)
				if fmt.Sprint(eb) != fmt.Sprint(ep) {
					t.Fatalf("step %d: RunUntil = %v batched, %v plain", i, eb, ep)
				}
			case 4: // snapshot
				w.batched.Snapshot(&w.stB)
				w.plain.Snapshot(&w.stP)
				w.haveSnap = true
				w.snapIDs = len(w.idsB)
			case 5: // restore
				if w.haveSnap {
					if err := w.batched.Restore(&w.stB); err != nil {
						t.Fatalf("Restore: %v", err)
					}
					if err := w.plain.Restore(&w.stP); err != nil {
						t.Fatalf("Restore: %v", err)
					}
					// IDs issued after the snapshot may alias a later
					// occupant of their slot once restored; callers must
					// drop them, and the two kernels recycle slots in
					// different orders.
					w.idsB, w.idsP = w.idsB[:w.snapIDs], w.idsP[:w.snapIDs]
				}
			case 6: // reset
				w.batched.Reset()
				w.plain.Reset()
				if w.batched.Pending() != 0 {
					t.Fatalf("step %d: Reset left %d pending", i, w.batched.Pending())
				}
			case 7: // event budget with a short poll cadence
				budget := w.plain.Executed() + uint64(arg%8) + 1
				every := uint64(arg/8%4) + 1
				for _, k := range []*Kernel{w.batched, w.plain} {
					k.SetInterruptCheck(every, func() error { return nil })
					k.SetEventBudget(budget)
				}
			}
			w.check(i)
		}
		for _, k := range []*Kernel{w.batched, w.plain} {
			k.SetEventBudget(0)
			k.SetInterruptCheck(0, nil)
		}
		eb, ep := w.batched.Run(), w.plain.Run()
		if eb != nil || ep != nil {
			t.Fatalf("final drain: batched %v, plain %v", eb, ep)
		}
		w.check(len(program))
		if w.batched.Pending() != 0 {
			t.Fatalf("drain left %d pending", w.batched.Pending())
		}
	})
}

// Pending counts every chained event, not just the chain's heap entry,
// and a canceled chain member is released at its pop while its successor
// still fires.
func TestBatchPendingAndCancelInChain(t *testing.T) {
	k := NewKernel()
	var got []int
	k.BeginBatch()
	var ids []EventID
	for i, at := range []Time{3, 1, 2, 1} {
		i := i
		ids = append(ids, k.BatchAt(at*Millisecond, PriorityNormal, func() { got = append(got, i) }))
	}
	k.EndBatch()
	if k.Pending() != 4 || len(k.heap) != 1 {
		t.Fatalf("Pending = %d with %d heap entries, want 4 behind 1", k.Pending(), len(k.heap))
	}
	if !k.Cancel(ids[3]) { // second in chain order (1 ms, seq 3)
		t.Fatal("Cancel of a chain member reported not pending")
	}
	if err := k.RunUntil(Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fmt.Sprint(got) != "[1]" || k.Pending() != 2 {
		t.Fatalf("after 1 ms: fired %v, pending %d; want [1], 2", got, k.Pending())
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fmt.Sprint(got) != "[1 2 0]" || k.Pending() != 0 {
		t.Fatalf("fired %v, pending %d; want [1 2 0], 0", got, k.Pending())
	}
	if len(k.free) != len(k.slab) {
		t.Fatalf("%d of %d slots free after drain", len(k.free), len(k.slab))
	}
}

// Reset releases every slot of every chain and of a batch left open, and
// bumps their generations so no pre-Reset ID survives.
func TestResetReleasesChains(t *testing.T) {
	k := NewKernel()
	fn := func() { t.Error("pre-Reset event fired") }
	var ids []EventID
	for c := 0; c < 3; c++ {
		k.BeginBatch()
		for i := 0; i < 5; i++ {
			ids = append(ids, k.BatchAt(Time(5-i)*Millisecond, PriorityNormal, fn))
		}
		k.EndBatch()
	}
	k.BeginBatch()
	ids = append(ids, k.BatchAt(Millisecond, PriorityNormal, fn))
	k.Reset()
	if k.Pending() != 0 || len(k.free) != len(k.slab) {
		t.Fatalf("Reset left %d pending, %d of %d slots free", k.Pending(), len(k.free), len(k.slab))
	}
	for _, id := range ids {
		if k.Cancel(id) {
			t.Fatalf("pre-Reset ID %v still cancels", id)
		}
	}
	k.BeginBatch() // the open batch did not survive Reset
	k.EndBatch()
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// BenchmarkKernelFanout16 is one 16-radio broadcast against a steady
// background: 16 pending periodic tickers, and per op one 31-event batch
// (the transmitter's txDone plus a reception begin and end at each of 15
// receivers) that is then drained along with the ticks it overtakes.
func BenchmarkKernelFanout16(b *testing.B) {
	k := NewKernel()
	for i := 0; i < 16; i++ {
		NewTicker(k, 10*Millisecond, PriorityNormal, func() {}).Start(Time(i) * 100 * Microsecond)
	}
	fn := func() {}
	fanout := func() {
		now := k.Now()
		k.BeginBatch()
		k.BatchAt(now.Add(400*Microsecond), PriorityNormal, fn)
		for r := 1; r < 16; r++ {
			delay := Time(r*97%16) * 10 * Nanosecond
			k.BatchAt(now.Add(delay), PriorityNormal, fn)
			k.BatchAt(now.Add(delay+400*Microsecond), PriorityNormal, fn)
		}
		k.EndBatch()
	}
	step := func() {
		fanout()
		if err := k.RunUntil(k.Now().Add(Millisecond)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
