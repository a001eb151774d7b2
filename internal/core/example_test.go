package core_test

import (
	"fmt"

	"comfase/internal/core"
	"comfase/internal/mac"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
)

// The complete Algorithm 1 flow on the paper's scenario: golden run,
// one delay-attack experiment, classification.
func ExampleEngine_RunExperiment() {
	eng, err := core.NewEngine(core.EngineConfig{
		Scenario: scenario.PaperScenario(),
		Comm:     scenario.PaperCommModel(),
		Seed:     1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := eng.RunExperiment(core.ExperimentSpec{
		Attack:   "delay",
		Targets:  []string{"vehicle.2"},
		Value:    2.0, // delay every frame to/from Vehicle 2 by 2 s
		Start:    18 * des.Second,
		Duration: 10 * des.Second,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("outcome:", res.Outcome)
	fmt.Println("collided:", res.Collided())
	fmt.Println("first collider:", res.Collider)
	// Output:
	// outcome: severe
	// collided: true
	// first collider: vehicle.3
}

// Table II's campaign grids are available as ready-made setups.
func ExamplePaperDelayCampaign() {
	setup := core.PaperDelayCampaign()
	fmt.Println("experiments:", setup.NumExperiments())
	fmt.Println("targets:", setup.Targets)
	// Output:
	// experiments: 11250
	// targets: [vehicle.2]
}

// Attack models decide per (sender, receiver) link; the paper's attacks
// hit both directions of the target vehicle.
func ExampleDelayAttack() {
	attack, err := core.NewDelayAttack(2*des.Second, "vehicle.2")
	if err != nil {
		fmt.Println(err)
		return
	}
	hit := attack.Intercept(0, "vehicle.1", "vehicle.2", mac.Frame{})
	miss := attack.Intercept(0, "vehicle.3", "vehicle.4", mac.Frame{})
	fmt.Println(hit.OverrideDelay, hit.Delay)
	fmt.Println(miss.OverrideDelay)
	// Output:
	// true 2s
	// false
}
