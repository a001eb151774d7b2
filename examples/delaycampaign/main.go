// Delay-attack campaign: a reduced version of the paper's §IV-C1 study.
// It sweeps propagation-delay values, attack start times and durations
// against Vehicle 2, classifies every experiment, and prints the three
// classification views of Figs. 5-7 plus the collider attribution.
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
	"comfase/internal/sim/des"
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

	// A 5x5x5 sub-grid of Table II (125 experiments; the paper's full
	// grid is 25 starts x 15 PD values x 30 durations = 11250, available
	// via cmd/comfase-figures).
	setup := core.CampaignSetup{
		Attack:  core.AttackDelay,
		Targets: []string{"vehicle.2"},
		Values:  []float64{0.2, 0.8, 1.4, 2.2, 3.0},
		Starts: []des.Time{
			17 * des.Second,
			18 * des.Second,
			19 * des.Second,
			19800 * des.Millisecond, // the benign low-acceleration window
			21 * des.Second,
		},
		Durations: []des.Time{
			des.Second, 3 * des.Second, 6 * des.Second,
			15 * des.Second, 30 * des.Second,
		},
	}

	fmt.Printf("running %d delay-attack experiments...\n", setup.NumExperiments())
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

	for _, series := range []analysis.Series{
		analysis.ByDuration(res.Experiments), // Fig. 5
		analysis.ByValue(res.Experiments),    // Fig. 6
		analysis.ByStart(res.Experiments),    // Fig. 7
	} {
		if err := analysis.WriteSeriesTable(os.Stdout, series); err != nil {
			return err
		}
		fmt.Println()
	}

	fmt.Println("collider attribution (paper §IV-C1: V2 65.4%, V3 18.1%, V4 16.5%):")
	return analysis.WriteColliderTable(os.Stdout, analysis.ColliderShares(res.Experiments))
}
