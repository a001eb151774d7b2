// Controller resilience comparison: CACC vs ACC vs Ploeg under the same
// delay attack — the analysis style of Heijden et al. and Iorio et al.
// (paper §II-D). The cooperative controllers (PATH CACC, Ploeg) consume
// V2V feedforward and suffer under delay; the autonomous radar-only ACC
// is immune but keeps much larger gaps.
package main

import (
	"fmt"
	"log"

	"comfase/internal/classify"
	"comfase/internal/core"
	"comfase/internal/platoon"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	controllers := []struct {
		name    string
		factory scenario.ControllerFactory
	}{
		{name: "CACC", factory: func(int) platoon.Controller { return platoon.DefaultCACC() }},
		{name: "PLOEG", factory: func(int) platoon.Controller { return platoon.DefaultPloeg() }},
		{name: "ACC", factory: func(int) platoon.Controller { return platoon.DefaultACC() }},
	}

	// The probe attack: 2 s delay on Vehicle 2 during the deceleration
	// phase, a reliably severe case for the paper's CACC platoon.
	spec := core.ExperimentSpec{
		Attack:   "delay",
		Targets:  []string{"vehicle.2"},
		Value:    2.0,
		Start:    18 * des.Second,
		Duration: 10 * des.Second,
	}

	fmt.Println("controller resilience to a 2 s delay attack on Vehicle 2 (18s..28s):")
	for _, c := range controllers {
		eng, err := core.NewEngine(core.EngineConfig{
			Scenario:    scenario.PaperScenario(),
			Comm:        scenario.PaperCommModel(),
			Controllers: c.factory,
			Seed:        1,
		})
		if err != nil {
			return err
		}
		_, golden, err := eng.GoldenRun()
		if err != nil {
			return fmt.Errorf("%s golden run: %w", c.name, err)
		}
		res, err := eng.RunExperiment(spec)
		if err != nil {
			return fmt.Errorf("%s attack run: %w", c.name, err)
		}
		verdict := "resists the attack"
		if res.Outcome == classify.Severe {
			verdict = "FAILS under the attack"
		}
		fmt.Printf("  %-6s golden max decel %.2f -> attacked: outcome=%-12s max decel %.2f, %d collisions (%s)\n",
			c.name, golden.MaxDecel, res.Outcome, res.MaxDecel, len(res.Collisions), verdict)
	}
	fmt.Println("\nnote: ACC ignores V2V data (radar only), so communication attacks")
	fmt.Println("cannot perturb it — matching the related work's finding that only")
	fmt.Println("cooperative controllers are sensitive to V2V channel attacks.")
	return nil
}
