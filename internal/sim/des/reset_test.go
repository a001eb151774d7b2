package des

import "testing"

func TestKernelResetClearsState(t *testing.T) {
	k := NewKernel()
	fired := 0
	for i := 0; i < 10; i++ {
		k.ScheduleAt(Time(i)*Second, func() { fired++ })
	}
	if err := k.RunUntil(4 * Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	k.SetInterruptCheck(8, func() error { return nil })

	k.Reset()
	if k.Now() != 0 {
		t.Errorf("Now = %v after Reset, want 0", k.Now())
	}
	if k.Pending() != 0 {
		t.Errorf("Pending = %d after Reset, want 0", k.Pending())
	}
	if k.Executed() != 0 {
		t.Errorf("Executed = %d after Reset, want 0", k.Executed())
	}
	if k.NextEventAt() != MaxTime {
		t.Errorf("NextEventAt = %v after Reset, want MaxTime", k.NextEventAt())
	}

	// The reset kernel is fully reusable.
	fired = 0
	k.ScheduleAt(2*Second, func() { fired++ })
	if err := k.Run(); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
	if fired != 1 || k.Now() != 2*Second {
		t.Errorf("post-Reset run fired=%d now=%v, want 1 at 2s", fired, k.Now())
	}
}

// A reset kernel must replay exactly the behaviour of a fresh kernel:
// same delivery order, same tie-breaking, same executed count.
func TestKernelResetDeterminism(t *testing.T) {
	run := func(k *Kernel) []Time {
		var fired []Time
		for _, at := range []Time{3 * Second, Second, Second, 2 * Second} {
			k.ScheduleAt(at, func() { fired = append(fired, k.Now()) })
		}
		id := k.ScheduleAt(1500*Millisecond, func() { t.Error("canceled event fired") })
		k.Cancel(id)
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return fired
	}
	k := NewKernel()
	first := run(k)
	k.Reset()
	second := run(k)
	if len(first) != len(second) {
		t.Fatalf("fired %d vs %d events", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, first[i], second[i])
		}
	}
}

// IDs issued before a Reset must not cancel (or otherwise affect) events
// scheduled after it, even though the slab slots are recycled.
func TestKernelResetInvalidatesStaleIDs(t *testing.T) {
	k := NewKernel()
	var stale []EventID
	for i := 0; i < 8; i++ {
		stale = append(stale, k.ScheduleAt(Time(i)*Second, func() {}))
	}
	k.Reset()

	fired := 0
	var fresh []EventID
	for i := 0; i < 8; i++ {
		fresh = append(fresh, k.ScheduleAt(Time(i)*Second, func() { fired++ }))
	}
	for i, id := range stale {
		if k.Cancel(id) {
			t.Fatalf("stale ID %d canceled a post-Reset event", i)
		}
	}
	for i, id := range fresh {
		for j, old := range stale {
			if id == old {
				t.Fatalf("fresh ID %d collides with pre-Reset ID %d", i, j)
			}
		}
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 8 {
		t.Errorf("fired = %d, want 8 (stale cancels must be no-ops)", fired)
	}
}

// Freelist recycling: a canceled event's slot is reused, and the old ID
// stays dead once recycled.
func TestKernelFreelistReuseAfterCancel(t *testing.T) {
	k := NewKernel()
	id := k.ScheduleAt(Second, func() { t.Error("canceled event fired") })
	if !k.Cancel(id) {
		t.Fatal("Cancel reported not pending")
	}
	if err := k.Run(); err != nil { // pops + recycles the canceled slot
		t.Fatalf("Run: %v", err)
	}

	fired := false
	id2 := k.ScheduleAt(2*Second, func() { fired = true })
	if id2 == id {
		t.Fatal("recycled slot reissued the same EventID")
	}
	if k.Cancel(id) {
		t.Fatal("stale ID canceled the slot's new occupant")
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Error("event scheduled on recycled slot did not fire")
	}
	// Slab must not have grown beyond the single slot both events used.
	if len(k.slab) != 1 {
		t.Errorf("slab has %d slots, want 1 (slot not recycled)", len(k.slab))
	}
}

// Steady-state scheduling is allocation-free: once the slab has grown to
// the working-set size, a schedule/pop cycle touches no heap memory.
func TestKernelScheduleZeroAllocs(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	// Warm the slab and heap to steady-state capacity.
	for i := 0; i < 1024; i++ {
		k.ScheduleAfter(Time(i)*Microsecond, fn)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("warmup Run: %v", err)
	}
	allocs := testing.AllocsPerRun(10000, func() {
		k.ScheduleAfter(Microsecond, fn)
		if !k.step(MaxTime) {
			t.Fatal("step found empty queue")
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule/pop cycle allocates %.1f objects/op, want 0", allocs)
	}

	// A batch reuses the kernel's key buffer: once a fan-out of this size
	// has been queued, queuing and draining another allocates nothing.
	batch := func() {
		now := k.Now()
		k.BeginBatch()
		k.BatchAt(now.Add(400*Microsecond), PriorityNormal, fn)
		for r := 1; r < 16; r++ {
			k.BatchAt(now.Add(Time(r)*Nanosecond), PriorityNormal, fn)
			k.BatchAt(now.Add(400*Microsecond+Time(r)*Nanosecond), PriorityNormal, fn)
		}
		k.EndBatch()
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	batch()
	if allocs := testing.AllocsPerRun(1000, batch); allocs != 0 {
		t.Fatalf("batch/drain cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// Schedule/cancel/pop is equally allocation-free: lazy deletion marks the
// slot in place and recycles it at pop time.
func TestKernelScheduleCancelZeroAllocs(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.ScheduleAfter(Time(i)*Microsecond, fn)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("warmup Run: %v", err)
	}
	allocs := testing.AllocsPerRun(10000, func() {
		keep := k.ScheduleAfter(Microsecond, fn)
		drop := k.ScheduleAfter(2*Microsecond, fn)
		_ = keep
		if !k.Cancel(drop) {
			t.Fatal("Cancel failed")
		}
		if !k.step(MaxTime) { // delivers keep, then recycles drop on next peek
			t.Fatal("step found empty queue")
		}
		if _, ok := k.peek(); ok {
			t.Fatal("canceled event survived peek")
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule/cancel/pop cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// Reset itself must not allocate: it only recycles slots.
func TestKernelResetZeroAllocs(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	for i := 0; i < 256; i++ {
		k.ScheduleAfter(Time(i)*Microsecond, fn)
	}
	k.Reset()
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			k.ScheduleAfter(Time(i)*Microsecond, fn)
		}
		k.Reset()
	})
	if allocs != 0 {
		t.Fatalf("schedule-burst/Reset cycle allocates %.1f objects/op, want 0", allocs)
	}
}
