// Package figures regenerates every table and figure of the paper's
// evaluation section (§IV-C) from scratch: the golden-run profiles of
// Fig. 4, the classification histograms of Figs. 5-7, the delay-campaign
// totals and collider shares of §IV-C1, and the DoS campaign of §IV-C2.
// The cmd/comfase-figures binary and the repository benchmarks are thin
// wrappers around this package.
package figures

import (
	"context"
	"fmt"
	"io"
	"time"

	"comfase/internal/analysis"
	"comfase/internal/core"
	"comfase/internal/runner"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
	"comfase/internal/trace"
)

// Options tunes a reproduction run.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Quick shrinks the delay grid (5 starts x 5 values x 6 durations =
	// 150 experiments) for fast smoke runs; the full grid is Table II's
	// 11250.
	Quick bool
	// Progress, when non-nil, receives campaign progress.
	Progress core.Progress
}

// Result bundles everything the paper's evaluation section reports.
type Result struct {
	// GoldenLog is the Fig. 4 time series.
	GoldenLog *trace.FullLog
	// Golden summarises the reference run.
	Golden core.GoldenResult
	// Delay is the §IV-C1 campaign result.
	Delay *core.CampaignResult
	// DoS is the §IV-C2 campaign result.
	DoS *core.CampaignResult
	// Fig5, Fig6, Fig7 are the classification series.
	Fig5, Fig6, Fig7 analysis.Series
	// DelayColliders and DoSColliders are the collider attributions.
	DelayColliders []analysis.ColliderShare
	DoSColliders   []analysis.ColliderShare
	// DelayWall and DoSWall are the wall-clock campaign durations (the
	// paper reports ~7 h for 11250 experiments on a Ryzen 7 5800X).
	DelayWall time.Duration
	DoSWall   time.Duration
}

// DelaySetup returns the delay-campaign grid: Table II's full grid, or a
// reduced-but-representative one in quick mode.
func DelaySetup(quick bool) core.CampaignSetup {
	if !quick {
		return core.PaperDelayCampaign()
	}
	setup := core.CampaignSetup{
		AttackName: "delay",
		Targets:    []string{"vehicle.2"},
		Values:     []float64{0.2, 0.8, 1.4, 2.2, 3.0},
		Starts: []des.Time{
			17 * des.Second,
			18200 * des.Millisecond,
			19400 * des.Millisecond,
			19800 * des.Millisecond,
			21 * des.Second,
		},
		Durations: []des.Time{
			des.Second, 2 * des.Second, 4 * des.Second,
			8 * des.Second, 16 * des.Second, 30 * des.Second,
		},
	}
	return setup
}

// Run executes the full reproduction: golden run, delay campaign, DoS
// campaign, and all derived series. Both campaigns run through the
// campaign runner on all cores.
func Run(opts Options) (*Result, error) {
	eng, err := core.NewEngine(core.EngineConfig{
		Scenario: scenario.PaperScenario(),
		Comm:     scenario.PaperCommModel(),
		Seed:     opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	log, golden, err := eng.GoldenRun()
	if err != nil {
		return nil, err
	}

	r, err := runner.New(eng, runner.Options{Progress: opts.Progress})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	delay, err := r.Run(context.TODO(), DelaySetup(opts.Quick))
	if err != nil {
		return nil, err
	}
	delayWall := time.Since(t0)

	t0 = time.Now()
	dos, err := r.Run(context.TODO(), core.PaperDoSCampaign())
	if err != nil {
		return nil, err
	}
	dosWall := time.Since(t0)

	return &Result{
		GoldenLog:      log,
		Golden:         golden,
		Delay:          delay,
		DoS:            dos,
		Fig5:           analysis.ByDuration(delay.Experiments),
		Fig6:           analysis.ByValue(delay.Experiments),
		Fig7:           analysis.ByStart(delay.Experiments),
		DelayColliders: analysis.ColliderShares(delay.Experiments),
		DoSColliders:   analysis.ColliderShares(dos.Experiments),
		DelayWall:      delayWall,
		DoSWall:        dosWall,
	}, nil
}

// WriteReport renders the full evaluation report as text.
func (r *Result) WriteReport(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("ComFASE-Go reproduction report\n================================\n\n"); err != nil {
		return err
	}
	if err := p("Golden run (Fig. 4 reference): max deceleration %.3f m/s^2, %d beacon deliveries, %d kernel events\n\n",
		r.Golden.MaxDecel, r.Golden.Deliveries, r.Golden.Events); err != nil {
		return err
	}

	if err := p("Delay campaign (SS IV-C1): %s\n", analysis.SummaryLine(r.Delay)); err != nil {
		return err
	}
	if err := p("  wall clock: %v\n\n", r.DelayWall.Round(time.Millisecond)); err != nil {
		return err
	}
	for _, series := range []analysis.Series{r.Fig5, r.Fig6, r.Fig7} {
		if err := analysis.WriteSeriesTable(w, series); err != nil {
			return err
		}
		if err := p("\n"); err != nil {
			return err
		}
		if err := analysis.WriteSeriesBars(w, series, 50); err != nil {
			return err
		}
		if err := p("\n"); err != nil {
			return err
		}
	}
	if err := p("Delay-campaign deceleration severity grading (SS III-A Step-4):\n"); err != nil {
		return err
	}
	edges := analysis.PaperDecelEdges(r.Golden.MaxDecel)
	if err := analysis.WriteDecelHistogram(w, analysis.DecelHistogram(r.Delay.Experiments, edges)); err != nil {
		return err
	}
	if err := p("\nDelay-campaign colliders (paper: V2 65.4%%, V3 18.1%%, V4 16.5%%):\n"); err != nil {
		return err
	}
	if err := analysis.WriteColliderTable(w, r.DelayColliders); err != nil {
		return err
	}

	if err := p("\nDoS campaign (SS IV-C2): %s\n", analysis.SummaryLine(r.DoS)); err != nil {
		return err
	}
	if err := p("  wall clock: %v\n", r.DoSWall.Round(time.Millisecond)); err != nil {
		return err
	}
	if err := p("DoS colliders (paper: V2 48%%, V3 40%%, V4 12%%):\n"); err != nil {
		return err
	}
	if err := analysis.WriteColliderTable(w, r.DoSColliders); err != nil {
		return err
	}
	if err := p("\nDoS collider by start time (paper: 17.6-19.4 s -> V3, 19.6-20 s -> V4, rest -> V2):\n"); err != nil {
		return err
	}
	for _, e := range r.DoS.Experiments {
		collider := e.Collider
		if collider == "" {
			collider = "(no collision: " + e.Outcome.String() + ")"
		}
		if err := p("  start %-6v -> %s\n", e.Spec.Start, collider); err != nil {
			return err
		}
	}
	return nil
}
