package scenario

import (
	"bytes"
	"errors"
	"testing"

	"comfase/internal/platoon"
	"comfase/internal/sim/des"
	"comfase/internal/trace"
)

// buildToFork builds the 5 s paper scenario on w, starts it and runs it
// to the fork point.
func buildToFork(t *testing.T, w *Workspace, fork des.Time) *Simulation {
	t.Helper()
	ts := PaperScenario()
	ts.TotalSimTime = 5 * des.Second
	sim, err := w.Build(ts, PaperCommModel(), 42, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sim.RunUntil(fork); err != nil {
		t.Fatalf("RunUntil(%v): %v", fork, err)
	}
	return sim
}

// TestCheckpointForkReplaysSuffix pins the workspace-level forking
// contract: restore + run-to-horizon replays the original suffix of the
// simulation byte for byte (full trace comparison).
func TestCheckpointForkReplaysSuffix(t *testing.T) {
	fork := 2 * des.Second
	w := NewWorkspace()
	sim := buildToFork(t, w, fork)
	log := trace.NewFullLog(sim.VehicleIDs())
	sim.AddRecorder(log)

	var cp Checkpoint
	if err := w.Snapshot(&cp); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if cp.Owner() != w {
		t.Fatal("checkpoint owner not recorded")
	}

	if err := sim.RunUntil(sim.TotalSimTime()); err != nil {
		t.Fatalf("first suffix: %v", err)
	}
	var want bytes.Buffer
	if err := log.WriteCSV(&want); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}

	for i := 0; i < 3; i++ {
		if err := w.Restore(&cp); err != nil {
			t.Fatalf("Restore %d: %v", i, err)
		}
		// Recorders are runtime wiring, not checkpointed state: a fresh
		// log sees exactly the post-fork samples.
		forkLog := trace.NewFullLog(sim.VehicleIDs())
		sim.AddRecorder(forkLog)
		if err := sim.RunUntil(sim.TotalSimTime()); err != nil {
			t.Fatalf("restored suffix %d: %v", i, err)
		}
		var got bytes.Buffer
		if err := forkLog.WriteCSV(&got); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		// The restored log restarts empty, so compare only the suffix
		// rows past the fork point: they must match the original run's.
		if !bytes.HasSuffix(want.Bytes(), suffixRows(t, got.Bytes())) {
			t.Fatalf("restored suffix %d diverged from original run", i)
		}
	}
}

// suffixRows strips the CSV header, returning just the data rows.
func suffixRows(t *testing.T, csv []byte) []byte {
	t.Helper()
	i := bytes.IndexByte(csv, '\n')
	if i < 0 {
		t.Fatal("trace CSV has no header")
	}
	return csv[i+1:]
}

// TestCheckpointOwnershipErrors pins the foreign/stale/empty rejection
// paths: a checkpoint is only valid in place, on the build it was taken
// from.
func TestCheckpointOwnershipErrors(t *testing.T) {
	fork := des.Second
	w := NewWorkspace()
	buildToFork(t, w, fork)
	var cp Checkpoint
	if err := w.Snapshot(&cp); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	other := NewWorkspace()
	buildToFork(t, other, fork)
	if err := other.Restore(&cp); !errors.Is(err, ErrForeignCheckpoint) {
		t.Errorf("foreign restore err = %v, want ErrForeignCheckpoint", err)
	}

	var empty Checkpoint
	if err := w.Restore(&empty); err == nil {
		t.Error("restore from empty checkpoint succeeded")
	}

	// Rebuilding the workspace advances its epoch: the old checkpoint
	// references the previous build's object graph and must be rejected.
	buildToFork(t, w, fork)
	if err := w.Restore(&cp); !errors.Is(err, ErrStaleCheckpoint) {
		t.Errorf("stale restore err = %v, want ErrStaleCheckpoint", err)
	}
}

// TestCheckpointRestoreAllocs pins the steady-state fork path end to
// end: once the checkpoint's buffers have grown, Restore allocates
// nothing.
func TestCheckpointRestoreAllocs(t *testing.T) {
	w := NewWorkspace()
	buildToFork(t, w, 2*des.Second)
	var cp Checkpoint
	if err := w.Snapshot(&cp); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := w.Restore(&cp); err != nil {
			t.Fatalf("Restore: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("Restore allocated %.1f per call, want 0", allocs)
	}
}

// rammer is a stateless follower controller that always commands full
// throttle, so it drives into its predecessor within a few seconds.
type rammer struct{}

func (rammer) Name() string { return "rammer" }
func (rammer) Update(float64, platoon.Snapshot, platoon.KinState, platoon.KinState) float64 {
	return 10
}
func (rammer) Reset()                             {}
func (rammer) SaveState() platoon.ControllerState { return platoon.ControllerState{} }
func (rammer) LoadState(platoon.ControllerState)  {}

// TestCheckpointRestoreAllocsAfterCollision is the post-collision twin
// of TestCheckpointRestoreAllocs: a checkpoint taken while a halted
// wreck holds entries in the collision log restores without touching
// the allocator either.
func TestCheckpointRestoreAllocsAfterCollision(t *testing.T) {
	w := NewWorkspace()
	ts := PaperScenario()
	ts.TotalSimTime = 5 * des.Second
	cacc := DefaultControllers()
	sim, err := w.Build(ts, PaperCommModel(), 42, func(i int) platoon.Controller {
		if i == 1 {
			return rammer{}
		}
		return cacc(i)
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sim.RunUntil(4 * des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if sim.Traffic.CollisionCount() == 0 {
		t.Fatal("no collision before the fork point")
	}
	var cp Checkpoint
	if err := w.Snapshot(&cp); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := w.Restore(&cp); err != nil {
			t.Fatalf("Restore: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("Restore after a collision allocated %.1f per call, want 0", allocs)
	}
}
