// Physical-layer jamming: the wireless-channel jamming attack the
// paper's future-work section plans. A jammer rides along with Vehicle 2
// and radiates interference; the effect on the platoon — carrier sense
// lockout and SINR collapse — emerges from the 802.11p PHY model. The
// example sweeps the jammer's transmit power and reports the outcome,
// exposing the cliff between a harmless nuisance emitter and a channel-
// killing jammer.
package main

import (
	"fmt"
	"log"

	"comfase/internal/core"
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
	_, golden, err := eng.GoldenRun()
	if err != nil {
		return err
	}
	fmt.Printf("golden run: max deceleration %.2f m/s^2\n\n", golden.MaxDecel)
	fmt.Println("jammer riding with Vehicle 2, active 18s..28s:")

	for _, power := range []float64{-60, -40, -30, -20, -10, 0, 23} {
		res, err := eng.RunExperiment(core.ExperimentSpec{
			Attack:   "jamming",
			Targets:  []string{"vehicle.2"},
			Value:    power, // jammer tx power in dBm
			Start:    18 * des.Second,
			Duration: 10 * des.Second,
		})
		if err != nil {
			return err
		}
		fmt.Printf("  %+4.0f dBm: outcome=%-13s max decel=%.2f m/s^2, %d collisions\n",
			power, res.Outcome, res.MaxDecel, len(res.Collisions))
	}
	fmt.Println("\nBelow the noise floor the jammer is invisible; once its energy")
	fmt.Println("reaches the receivers' carrier-sense threshold the platoon's")
	fmt.Println("beacons stop flowing and the CACC degrades exactly as under the")
	fmt.Println("propagation-delay DoS model — but produced by PHY physics.")
	return nil
}
