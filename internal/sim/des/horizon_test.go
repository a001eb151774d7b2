package des

import (
	"fmt"
	"testing"
)

// TestHorizonElidesEventsPastIt: under a horizon an event at the horizon
// is queued and fires, and one a nanosecond later, scheduled plainly, in
// a batch or at a reserved key, is never queued: its ID is Unqueued,
// which Cancel ignores.
func TestHorizonElidesEventsPastIt(t *testing.T) {
	const h = 10 * Millisecond
	k, plain := NewKernel(), NewKernel()
	k.SetHorizon(h)
	var fired []string
	log := func(s string) Handler { return func() { fired = append(fired, s) } }
	for _, kk := range []*Kernel{k, plain} {
		kk.ScheduleAt(h+Nanosecond, log("past"))
		kk.ScheduleAt(h, log("at"))
		kk.BeginBatch()
		kk.BatchAt(h+Nanosecond, PriorityNormal, log("batch past"))
		kk.BatchAt(h, PriorityNormal, log("batch at"))
		kk.EndBatch()
		seq := kk.Reserve()
		kk.BeginBatch()
		kk.BatchReserved(h+Nanosecond, PriorityNormal, seq, log("reserved past"))
		kk.EndBatch()
	}
	if k.Pending() != 2 || plain.Pending() != 5 {
		t.Fatalf("pending %d (plain %d), want 2 and 5", k.Pending(), plain.Pending())
	}
	if id := k.ScheduleAt(h+Nanosecond, log("late")); id != Unqueued || k.Cancel(id) {
		t.Fatalf("an event past the horizon got ID %v, or Cancel accepted it", id)
	}
	if err := k.RunUntil(h); err != nil {
		t.Fatalf("RunUntil(horizon): %v", err)
	}
	if got := fmt.Sprint(fired); got != "[at batch at]" || k.Pending() != 0 || k.Now() != h {
		t.Fatalf("fired %s, pending %d, now %v; want [at batch at], 0, %v", got, k.Pending(), k.Now(), h)
	}
	if err := k.RunUntil(h + Nanosecond); err == nil {
		t.Fatal("RunUntil past the horizon succeeded")
	}
	k.Reset()
	if k.Horizon() != MaxTime {
		t.Fatalf("Reset left the horizon at %v", k.Horizon())
	}
}
