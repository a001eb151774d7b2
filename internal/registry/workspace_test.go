package registry

import (
	"bytes"
	"fmt"
	"testing"

	"comfase/internal/registry/param"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
	"comfase/internal/trace"
)

// runTrace builds def on w, runs it to its horizon and returns its full
// trace as CSV bytes followed by its collision log.
func runTrace(t *testing.T, w *scenario.Workspace, def ScenarioDef) []byte {
	t.Helper()
	sim, err := w.Build(def.Traffic, def.Comm, 7, def.Controllers)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	log := trace.NewFullLog(sim.VehicleIDs())
	sim.AddRecorder(log)
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sim.RunUntil(sim.TotalSimTime()); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	var buf bytes.Buffer
	if err := log.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	for _, c := range sim.Traffic.Collisions() {
		fmt.Fprintln(&buf, c)
	}
	return buf.Bytes()
}

// TestWorkspaceReuseAcrossManeuvers pins that Workspace.Build starts the
// leader's per-step profile memo over: one workspace building the paper
// sinusoid, the registry's braking scenario, a scenario on another step
// grid and the paper scenario again must replay, build by build, the
// bytes of a fresh workspace.
func TestWorkspaceReuseAcrossManeuvers(t *testing.T) {
	paper := ScenarioDef{Traffic: scenario.PaperScenario(), Comm: scenario.PaperCommModel()}
	paper.Traffic.TotalSimTime = 35 * des.Second
	braking, err := BuildScenario("platoon", param.Params{"maneuver": "braking", "totalSimTimeS": 35.0})
	if err != nil {
		t.Fatalf("BuildScenario: %v", err)
	}
	grid := paper
	grid.Traffic.StepLength = 20 * des.Millisecond
	grid.Traffic.TotalSimTime = 12 * des.Second

	w := scenario.NewWorkspace()
	for i, def := range []ScenarioDef{paper, braking, grid, paper} {
		got := runTrace(t, w, def)
		want := runTrace(t, scenario.NewWorkspace(), def)
		if !bytes.Equal(got, want) {
			t.Errorf("build %d on a reused workspace diverged from a fresh one (%d vs %d bytes)",
				i, len(got), len(want))
		}
	}
}
