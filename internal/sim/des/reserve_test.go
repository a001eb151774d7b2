package des

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// keptEvent is an event a component keeps off the queue under a reserved
// key.
type keptEvent struct {
	at   Time
	prio Priority
	seq  uint64
	tag  int
}

// keeper is a component that keeps events off its kernel's queue: each
// kept event waits on a key-ordered list until the component is observed
// (settle, which runs the events whose keys the kernel has passed) or
// hands the rest back (promote). Most dispatched events observe it first,
// as a radio's own reception events do; the others leave it alone, as
// other radios' events do.
type keeper struct {
	k    *Kernel
	log  *[]string
	kept []keptEvent
}

// keep keeps an event off the queue and reports true, or reports false
// when its key would already be due on arrival: a pause at its time, or
// a running event at its time with a higher priority, has passed it.
func (c *keeper) keep(at Time, prio Priority, tag int) bool {
	if at < c.k.Now() {
		at = c.k.Now()
	}
	if c.k.Passed(at, prio, math.MaxUint64) {
		return false
	}
	e := keptEvent{at: at, prio: prio, seq: c.k.Reserve(), tag: tag}
	i := len(c.kept)
	for i > 0 && (c.kept[i-1].at > at || c.kept[i-1].at == at && c.kept[i-1].prio > prio) {
		i--
	}
	c.kept = slices.Insert(c.kept, i, e)
	return true
}

func (c *keeper) settle() {
	n := 0
	for ; n < len(c.kept) && c.k.Passed(c.kept[n].at, c.kept[n].prio, c.kept[n].seq); n++ {
		*c.log = append(*c.log, fmt.Sprint(c.kept[n].tag))
	}
	c.kept = c.kept[n:]
	c.k.CountSettled(uint64(n))
}

func (c *keeper) promote(handler func(int) Handler) {
	if len(c.kept) == 0 {
		return
	}
	c.k.BeginBatch()
	for _, e := range c.kept {
		c.k.BatchReserved(e.at, e.prio, e.seq, handler(e.tag))
	}
	c.k.EndBatch()
	c.kept = nil
}

// reserveTwin drives a kernel whose component keeps some events off the
// queue and a kernel that schedules every event plainly, from one random
// operation stream.
type reserveTwin struct {
	t            *testing.T
	r            *rand.Rand
	res, plain   *Kernel
	logR, logP   []string
	c            *keeper
	tag          int
	stR, stP     KernelState
	snapKept     []keptEvent
	haveSnapshot bool
}

// handler returns an event body. An event whose tag is 2 mod 4 neither
// observes the component nor logs; the others do both. A tag divisible
// by 10 spawns a follow-up event with an odd tag on its kernel when it
// fires, which the component keeps unless it would be due on arrival (a
// follow-up at Now with a priority below the running event's). Kept
// events spawn nothing, as settled receptions schedule nothing.
func (w *reserveTwin) handler(reserved bool, tag int) Handler {
	return func() {
		switch {
		case tag%4 == 2:
		case reserved:
			w.c.settle()
			w.logR = append(w.logR, fmt.Sprint(tag))
		default:
			w.logP = append(w.logP, fmt.Sprint(tag))
		}
		if tag%10 == 0 {
			w.add(reserved, Time(tag%3)*Millisecond, Priority(tag%3-1), -1-tag)
		}
	}
}

// add queues one event at now+d on one kernel: kept by the component
// when the tag is odd, scheduled otherwise.
func (w *reserveTwin) add(reserved bool, d Time, prio Priority, tag int) {
	if !reserved {
		w.plain.ScheduleAtPrio(w.plain.Now().Add(d), prio, w.handler(false, tag))
		return
	}
	if tag%2 != 0 && w.c.keep(w.res.Now().Add(d), prio, tag) {
		return
	}
	w.res.ScheduleAtPrio(w.res.Now().Add(d), prio, w.handler(true, tag))
}

func (w *reserveTwin) check(step string) {
	w.t.Helper()
	r, p := w.res, w.plain
	if fmt.Sprint(w.logR) != fmt.Sprint(w.logP) {
		w.t.Fatalf("%s: order differs:\nreserved %v\nplain    %v", step, w.logR, w.logP)
	}
	if r.Now() != p.Now() || r.Executed() != p.Executed() || r.sinceCheck != p.sinceCheck {
		w.t.Fatalf("%s: reserved now=%v executed=%d phase=%d, plain now=%v executed=%d phase=%d",
			step, r.Now(), r.Executed(), r.sinceCheck, p.Now(), p.Executed(), p.sinceCheck)
	}
}

// TestReservedKeysMatchPlainScheduling is the oracle for Reserve,
// BatchReserved, Passed, CountSettled and the pause hook: a component
// that keeps events off the queue, settles them in key order whenever it
// is observed (by its own events and at every pause) and hands them back
// in chains, must log the order plain scheduling dispatches, with the
// same Now, Executed and interrupt poll phase at every pause, across
// batches, RunUntil, Run draining the queue, and snapshot/restore.
func TestReservedKeysMatchPlainScheduling(t *testing.T) {
	var settled, dispatched uint64
	for seed := uint64(0); seed < 300; seed++ {
		w := &reserveTwin{t: t, r: rand.New(rand.NewPCG(seed, 7)), res: NewKernel(), plain: NewKernel()}
		w.c = &keeper{k: w.res, log: &w.logR}
		w.res.SetPauseHook(func(drain bool) {
			w.c.settle()
			if drain {
				w.c.promote(func(tag int) Handler { return w.handler(true, tag) })
			}
		})
		every := uint64(1 + w.r.IntN(5))
		for _, k := range []*Kernel{w.res, w.plain} {
			k.SetInterruptCheck(every, func() error { return nil })
		}
		for op := 0; op < 60; op++ {
			step := fmt.Sprintf("seed %d op %d", seed, op)
			switch w.r.IntN(8) {
			case 0, 1: // one event
				d, prio := Time(w.r.IntN(4))*Millisecond, Priority(w.r.IntN(3)-1)
				w.add(true, d, prio, w.tag)
				w.add(false, d, prio, w.tag)
				w.tag++
			case 2: // a batch mixing kept and queued events
				n := 1 + w.r.IntN(8)
				w.res.BeginBatch()
				for j := 0; j < n; j++ {
					d, prio := Time(w.r.IntN(4))*Millisecond, Priority(w.r.IntN(3)-1)
					if w.tag%2 == 0 || !w.c.keep(w.res.Now().Add(d), prio, w.tag) {
						w.res.BatchAt(w.res.Now().Add(d), prio, w.handler(true, w.tag))
					}
					w.plain.ScheduleAtPrio(w.plain.Now().Add(d), prio, w.handler(false, w.tag))
					w.tag++
				}
				w.res.EndBatch()
			case 3, 4: // run a while
				limit := w.plain.Now().Add(Time(w.r.IntN(3)) * Millisecond)
				if er, ep := w.res.RunUntil(limit), w.plain.RunUntil(limit); er != nil || ep != nil {
					t.Fatalf("%s: RunUntil: reserved %v, plain %v", step, er, ep)
				}
				w.check(step)
			case 5: // an observer hands the rest back
				w.c.settle()
				w.c.promote(func(tag int) Handler { return w.handler(true, tag) })
			case 6: // snapshot
				w.res.Snapshot(&w.stR)
				w.plain.Snapshot(&w.stP)
				w.snapKept = slices.Clone(w.c.kept)
				w.haveSnapshot = true
			case 7: // restore
				if !w.haveSnapshot {
					continue
				}
				if err := w.res.Restore(&w.stR); err != nil {
					t.Fatal(err)
				}
				if err := w.plain.Restore(&w.stP); err != nil {
					t.Fatal(err)
				}
				w.c.kept = slices.Clone(w.snapKept)
				w.logR, w.logP = nil, nil
			}
		}
		if er, ep := w.res.Run(), w.plain.Run(); er != nil || ep != nil {
			t.Fatalf("seed %d: Run: reserved %v, plain %v", seed, er, ep)
		}
		w.check(fmt.Sprintf("seed %d drained", seed))
		if len(w.c.kept) != 0 || w.res.Pending() != 0 {
			t.Fatalf("seed %d: drain left %d kept, %d queued", seed, len(w.c.kept), w.res.Pending())
		}
		settled += w.res.Settled()
		dispatched += w.res.Executed() - w.res.Settled()
	}
	if settled == 0 || dispatched == 0 {
		t.Fatalf("%d events settled and %d dispatched, want some of each", settled, dispatched)
	}
}

// TestBatchReservedRejectsBadKeys: a key that was never reserved, or
// that the kernel has passed, cannot be queued.
func TestBatchReservedRejectsBadKeys(t *testing.T) {
	k := NewKernel()
	seq := k.Reserve()
	k.ScheduleAt(2*Millisecond, func() {})
	if err := k.RunUntil(3 * Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		at   Time
		seq  uint64
	}{
		{"unreserved", 5 * Millisecond, k.nextSeq},
		{"passed", 3 * Millisecond, seq},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s key queued", c.name)
				}
			}()
			k.BeginBatch()
			defer k.EndBatch()
			k.BatchReserved(c.at, PriorityNormal, c.seq, func() {})
		}()
	}
}
