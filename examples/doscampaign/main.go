// DoS campaign: the paper's §IV-C2 study. 25 denial-of-service attacks
// on Vehicle 2, one per start time in [17.0 s, 21.8 s], each active until
// the end of the simulation. Prints the outcome per start time and the
// collider attribution, which in the paper splits 48/40/12% across
// Vehicles 2/3/4 depending on the attack start band.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"comfase/internal/analysis"
	"comfase/internal/core"
	"comfase/internal/runner"
	"comfase/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	eng, err := core.NewEngine(core.EngineConfig{
		Scenario: scenario.PaperScenario(),
		Comm:     scenario.PaperCommModel(),
		Seed:     1,
	})
	if err != nil {
		return err
	}

	setup := core.PaperDoSCampaign()
	fmt.Printf("running %d DoS experiments (PD pinned to the 60 s horizon)...\n",
		setup.NumExperiments())
	r, err := runner.New(eng, runner.Options{})
	if err != nil {
		return err
	}
	res, err := r.Run(context.Background(), setup)
	if err != nil {
		return err
	}
	fmt.Println(analysis.SummaryLine(res))
	fmt.Println()

	fmt.Println("outcome and collider per attack start time:")
	for _, e := range res.Experiments {
		collider := e.Collider
		if collider == "" {
			collider = "-"
		}
		fmt.Printf("  start %-6v  %-12s collider %-10s max decel %.2f m/s^2\n",
			e.Spec.Start, e.Outcome, collider, e.MaxDecel)
	}
	fmt.Println()

	fmt.Println("collider shares (paper: V2 48%, V3 40%, V4 12%):")
	return analysis.WriteColliderTable(os.Stdout, analysis.ColliderShares(res.Experiments))
}
