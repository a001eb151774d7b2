// Package comfase benchmarks regenerate the paper's evaluation artifacts
// (one benchmark per table/figure of §IV-C) plus the ablations called
// out in DESIGN.md. Absolute times are hardware-bound; the reported
// custom metrics (severe/benign/negligible counts, collision counts)
// carry the reproduced result shapes.
//
// Run everything:  go test -bench=. -benchmem
// Full-grid runs (Table II's 11250 experiments) live in
// cmd/comfase-figures; the benchmarks use representative sub-grids so a
// bench sweep completes in minutes.
package comfase

import (
	"context"
	"runtime"
	"testing"

	"comfase/internal/classify"
	"comfase/internal/core"
	"comfase/internal/figures"
	"comfase/internal/phy"
	"comfase/internal/platoon"
	"comfase/internal/registry"
	"comfase/internal/registry/param"
	"comfase/internal/runner"
	"comfase/internal/safety"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
	"comfase/internal/sim/rng"
	"comfase/internal/trace"
	"comfase/internal/wave1609"
)

// newEngine builds a paper-configured engine and primes its golden run.
func newEngine(b *testing.B, cfg core.EngineConfig) *core.Engine {
	b.Helper()
	if cfg.Scenario.NrVehicles == 0 {
		cfg.Scenario = scenario.PaperScenario()
	}
	if cfg.Comm.PacketBits == 0 {
		cfg.Comm = scenario.PaperCommModel()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		b.Fatalf("NewEngine: %v", err)
	}
	if _, _, err := eng.GoldenRun(); err != nil {
		b.Fatalf("GoldenRun: %v", err)
	}
	return eng
}

// BenchmarkFig4GoldenRun regenerates Fig. 4: the 60 s attack-free
// four-vehicle sinusoidal platoon run whose speed/acceleration profiles
// anchor the classification thresholds.
func BenchmarkFig4GoldenRun(b *testing.B) {
	var maxDecel float64
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(core.EngineConfig{
			Scenario: scenario.PaperScenario(),
			Comm:     scenario.PaperCommModel(),
			Seed:     1,
		})
		if err != nil {
			b.Fatalf("NewEngine: %v", err)
		}
		_, res, err := eng.GoldenRun()
		if err != nil {
			b.Fatalf("GoldenRun: %v", err)
		}
		maxDecel = res.MaxDecel
	}
	b.ReportMetric(maxDecel, "golden-max-decel-mps2")
}

// runSweep executes a set of experiments and reports outcome metrics.
func runSweep(b *testing.B, eng *core.Engine, specs []core.ExperimentSpec) {
	b.Helper()
	var counts classify.Counts
	for i := 0; i < b.N; i++ {
		counts = classify.Counts{}
		for _, spec := range specs {
			res, err := eng.RunExperiment(spec)
			if err != nil {
				b.Fatalf("RunExperiment(%v): %v", spec, err)
			}
			counts.Add(res.Outcome)
		}
	}
	b.ReportMetric(float64(counts.Severe), "severe")
	b.ReportMetric(float64(counts.Benign), "benign")
	b.ReportMetric(float64(counts.Negligible), "negligible")
	b.ReportMetric(float64(len(specs)), "experiments")
}

// BenchmarkFig5DurationSweep regenerates the Fig. 5 series: outcome vs
// attack duration at a severe-prone grid point. The paper's shape:
// severe counts rise with duration and saturate around 4-5 s.
func BenchmarkFig5DurationSweep(b *testing.B) {
	eng := newEngine(b, core.EngineConfig{})
	var specs []core.ExperimentSpec
	for _, d := range []des.Time{
		des.Second, 2 * des.Second, 4 * des.Second,
		8 * des.Second, 16 * des.Second, 30 * des.Second,
	} {
		specs = append(specs, core.ExperimentSpec{
			Attack: "delay", Targets: []string{"vehicle.2"},
			Value: 2.0, Start: 18 * des.Second, Duration: d,
		})
	}
	b.ResetTimer()
	runSweep(b, eng, specs)
}

// BenchmarkFig6PDSweep regenerates the Fig. 6 series: outcome vs
// propagation-delay value. The paper's shape: more severe cases at
// higher PD, saturating beyond ~2.2 s.
func BenchmarkFig6PDSweep(b *testing.B) {
	eng := newEngine(b, core.EngineConfig{})
	var specs []core.ExperimentSpec
	for _, pd := range []float64{0.2, 0.8, 1.4, 2.2, 3.0} {
		specs = append(specs, core.ExperimentSpec{
			Attack: "delay", Targets: []string{"vehicle.2"},
			Value: pd, Start: 18 * des.Second, Duration: 10 * des.Second,
		})
	}
	b.ResetTimer()
	runSweep(b, eng, specs)
}

// BenchmarkFig7StartTimeSweep regenerates the Fig. 7 series: outcome vs
// attack start time. The paper's shape: mostly severe, with a benign dip
// where the platoon's acceleration is near zero (our phase: ~19.8 s).
func BenchmarkFig7StartTimeSweep(b *testing.B) {
	eng := newEngine(b, core.EngineConfig{})
	var specs []core.ExperimentSpec
	for _, s := range []des.Time{
		17 * des.Second, 18 * des.Second, 19 * des.Second,
		19800 * des.Millisecond, 20600 * des.Millisecond, 21400 * des.Millisecond,
	} {
		specs = append(specs, core.ExperimentSpec{
			Attack: "delay", Targets: []string{"vehicle.2"},
			Value: 2.0, Start: s, Duration: 10 * des.Second,
		})
	}
	b.ResetTimer()
	runSweep(b, eng, specs)
}

// runCampaign runs setup through the campaign runner on all cores.
func runCampaign(b *testing.B, eng *core.Engine, setup core.CampaignSetup) *core.CampaignResult {
	b.Helper()
	r, err := runner.New(eng, runner.Options{})
	if err != nil {
		b.Fatalf("runner.New: %v", err)
	}
	res, err := r.Run(context.Background(), setup)
	if err != nil {
		b.Fatalf("Run: %v", err)
	}
	return res
}

// BenchmarkTableDelayCampaign runs the representative reduced delay grid
// (150 experiments; the paper's full Table II grid of 11250 runs via
// cmd/comfase-figures). Paper totals: 5923 severe / 4941 benign / 386
// negligible / 0 non-effective.
func BenchmarkTableDelayCampaign(b *testing.B) {
	eng := newEngine(b, core.EngineConfig{})
	setup := figures.DelaySetup(true)
	b.ResetTimer()
	var counts classify.Counts
	for i := 0; i < b.N; i++ {
		counts = runCampaign(b, eng, setup).Counts
	}
	b.ReportMetric(float64(counts.Severe), "severe")
	b.ReportMetric(float64(counts.Benign), "benign")
	b.ReportMetric(float64(counts.Negligible), "negligible")
	b.ReportMetric(float64(counts.NonEffective), "non-effective")
}

// BenchmarkTableDoSCampaign runs the paper's full §IV-C2 DoS campaign
// (25 experiments). Paper: 25/25 severe, colliders V2 48% / V3 40% /
// V4 12%.
func BenchmarkTableDoSCampaign(b *testing.B) {
	eng := newEngine(b, core.EngineConfig{})
	setup := core.PaperDoSCampaign()
	b.ResetTimer()
	var counts classify.Counts
	colliders := map[string]int{}
	for i := 0; i < b.N; i++ {
		res := runCampaign(b, eng, setup)
		counts = res.Counts
		colliders = map[string]int{}
		for _, e := range res.Experiments {
			if e.Collider != "" {
				colliders[e.Collider]++
			}
		}
	}
	b.ReportMetric(float64(counts.Severe), "severe")
	b.ReportMetric(float64(colliders["vehicle.2"]), "collider-v2")
	b.ReportMetric(float64(colliders["vehicle.3"]), "collider-v3")
	b.ReportMetric(float64(colliders["vehicle.4"]), "collider-v4")
}

// BenchmarkAblationControllers compares controller resilience (CACC vs
// Ploeg vs ACC) under the same delay attack — the DESIGN.md A1 ablation.
func BenchmarkAblationControllers(b *testing.B) {
	spec := core.ExperimentSpec{
		Attack: "delay", Targets: []string{"vehicle.2"},
		Value: 2.0, Start: 18 * des.Second, Duration: 10 * des.Second,
	}
	for _, c := range []struct {
		name    string
		factory scenario.ControllerFactory
	}{
		{name: "CACC", factory: func(int) platoon.Controller { return platoon.DefaultCACC() }},
		{name: "PLOEG", factory: func(int) platoon.Controller { return platoon.DefaultPloeg() }},
		{name: "ACC", factory: func(int) platoon.Controller { return platoon.DefaultACC() }},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			eng := newEngine(b, core.EngineConfig{Controllers: c.factory})
			b.ResetTimer()
			var severe int
			for i := 0; i < b.N; i++ {
				res, err := eng.RunExperiment(spec)
				if err != nil {
					b.Fatalf("RunExperiment: %v", err)
				}
				if res.Outcome == classify.Severe {
					severe = 1
				} else {
					severe = 0
				}
			}
			b.ReportMetric(float64(severe), "severe")
		})
	}
}

// BenchmarkAblationPathLoss compares the two wirelessModel options of
// Step-1 (free-space vs two-ray interference) on the golden run — the
// DESIGN.md A2 ablation. At platoon ranges both deliver every beacon, so
// the classification baseline is identical.
func BenchmarkAblationPathLoss(b *testing.B) {
	for _, m := range []struct {
		name string
		loss phy.PathLoss
	}{
		{name: "freespace", loss: phy.FreeSpace{Alpha: 2}},
		{name: "tworay", loss: phy.TwoRayInterference{}},
	} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			comm := scenario.PaperCommModel()
			comm.Channel.PathLoss = m.loss
			var deliveries uint64
			for i := 0; i < b.N; i++ {
				eng := newEngine(b, core.EngineConfig{Comm: comm})
				cfg := eng.Config()
				_ = cfg
				_, res, err := eng.GoldenRun()
				if err != nil {
					b.Fatalf("GoldenRun: %v", err)
				}
				deliveries = res.Deliveries
			}
			b.ReportMetric(float64(deliveries), "deliveries")
		})
	}
}

// BenchmarkAblationChannelAccess compares IEEE 1609.4 continuous vs
// alternating channel access on the golden run — the DESIGN.md A3
// ablation. Alternating access delays beacons by up to ~54 ms but never
// reclassifies the golden run.
func BenchmarkAblationChannelAccess(b *testing.B) {
	for _, mode := range []wave1609.AccessMode{
		wave1609.AccessContinuous, wave1609.AccessAlternating,
	} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			comm := scenario.PaperCommModel()
			comm.Schedule = wave1609.NewSchedule(mode)
			var maxDecel float64
			var deliveries uint64
			for i := 0; i < b.N; i++ {
				eng := newEngine(b, core.EngineConfig{Comm: comm})
				_, res, err := eng.GoldenRun()
				if err != nil {
					b.Fatalf("GoldenRun: %v", err)
				}
				maxDecel = res.MaxDecel
				deliveries = res.Deliveries
			}
			b.ReportMetric(maxDecel, "golden-max-decel-mps2")
			b.ReportMetric(float64(deliveries), "deliveries")
		})
	}
}

// BenchmarkAblationAEB runs the DoS campaign with and without the AEB
// distance monitor (the paper's future-work sensor redundancy). With
// the monitor, collisions drop to zero; severity persists only through
// forced emergency braking.
func BenchmarkAblationAEB(b *testing.B) {
	for _, mode := range []struct {
		name string
		aeb  *safety.AEB
	}{
		{name: "unprotected", aeb: nil},
		{name: "with-aeb", aeb: safety.DefaultAEB()},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			ts := scenario.PaperScenario()
			ts.AEB = mode.aeb
			eng := newEngine(b, core.EngineConfig{Scenario: ts})
			setup := core.PaperDoSCampaign()
			b.ResetTimer()
			var collisions, severe int
			for i := 0; i < b.N; i++ {
				res := runCampaign(b, eng, setup)
				collisions, severe = 0, res.Counts.Severe
				for _, e := range res.Experiments {
					if e.Collided() {
						collisions++
					}
				}
			}
			b.ReportMetric(float64(collisions), "collisions")
			b.ReportMetric(float64(severe), "severe")
		})
	}
}

// BenchmarkAblationFading compares the golden run without fading (the
// paper's setup) against Nakagami-m highway fading. At 5-10 m platoon
// ranges the link margin is enormous, so even deep fades rarely destroy
// beacons — supporting the paper's choice to omit fading.
func BenchmarkAblationFading(b *testing.B) {
	for _, mode := range []string{"none", "nakagami"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			comm := scenario.PaperCommModel()
			if mode == "nakagami" {
				comm.Channel.Fading = phy.NewNakagamiFading(rng.New(1, "fading"))
			}
			var deliveries uint64
			for i := 0; i < b.N; i++ {
				eng := newEngine(b, core.EngineConfig{Comm: comm})
				_, res, err := eng.GoldenRun()
				if err != nil {
					b.Fatalf("GoldenRun: %v", err)
				}
				deliveries = res.Deliveries
			}
			b.ReportMetric(float64(deliveries), "deliveries")
		})
	}
}

// BenchmarkKernelThroughput measures the raw DES kernel event rate that
// bounds campaign wall-clock time.
func BenchmarkKernelThroughput(b *testing.B) {
	k := des.NewKernel()
	var next func()
	count := 0
	next = func() {
		count++
		if count < b.N {
			k.ScheduleAfter(des.Microsecond, next)
		}
	}
	b.ResetTimer()
	k.ScheduleAfter(des.Microsecond, next)
	if err := k.Run(); err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// BenchmarkExperiment measures a single end-to-end attack experiment
// (build + 60 s simulation + classification), the unit the 11250-run
// campaign multiplies.
func BenchmarkExperiment(b *testing.B) {
	eng := newEngine(b, core.EngineConfig{})
	spec := core.ExperimentSpec{
		Attack: "delay", Targets: []string{"vehicle.2"},
		Value: 1.4, Start: 19 * des.Second, Duration: 7 * des.Second,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunExperiment(spec); err != nil {
			b.Fatalf("RunExperiment: %v", err)
		}
	}
}

// BenchmarkExperimentCheckpointed isolates the per-sibling gain of
// prefix-checkpoint forking on one experiment: "fresh" builds and
// simulates from t=0 (BenchmarkExperiment's path), "forked" restores a
// 19 s prefix checkpoint and simulates only the remaining 41 s. The gap
// between the two is the redundant prefix work a checkpointed campaign
// skips for every sibling after the first.
func BenchmarkExperimentCheckpointed(b *testing.B) {
	spec := core.ExperimentSpec{
		Attack: "delay", Targets: []string{"vehicle.2"},
		Value: 1.4, Start: 19 * des.Second, Duration: 7 * des.Second,
	}
	b.Run("fresh", func(b *testing.B) {
		eng := newEngine(b, core.EngineConfig{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.RunExperiment(spec); err != nil {
				b.Fatalf("RunExperiment: %v", err)
			}
		}
	})
	b.Run("forked", func(b *testing.B) {
		eng := newEngine(b, core.EngineConfig{})
		gs, err := eng.BeginGroup(context.Background(), spec.Start)
		if err != nil {
			b.Fatalf("BeginGroup: %v", err)
		}
		defer gs.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gs.RunExperiment(context.Background(), spec, false); err != nil {
				b.Fatalf("RunExperiment: %v", err)
			}
		}
	})
}

// BenchmarkCampaignCheckpointed measures the campaign-level speedup of
// the checkpoint stack on a paper-shaped grid: 25 start times (Table
// II's 17-21.8 s sweep) x 2 values x 8 ascending durations = 400
// experiments on a horizon that just covers the latest attack window.
// (Table II sweeps 30 durations per value; eight keeps the benchmark's
// wall clock short while still amortising each chain's shared attacked
// interval the way the paper grid does.)
// The modes peel the layers apart: "reference" is a reference engine
// (core.EngineConfig.Reference), with no checkpoint and every other exact
// fast path off, "trie" forks each same-start group from its prefix checkpoint and
// chains same-value experiments through mid-attack boundary snapshots so
// each simulates just its unique duration suffix, and "trie+early-exit"
// additionally stops every run once its verdict is decided. The outcome
// metric pins the result shape: all three modes classify identically.
// It runs one worker on one P (oneProc).
func BenchmarkCampaignCheckpointed(b *testing.B) {
	ts := scenario.PaperScenario()
	// Clip the horizon to the latest attack end (21.8 s + 25 s): the
	// paper's 60 s horizon just idles past it and dilutes the measured
	// prefix share.
	ts.TotalSimTime = 47 * des.Second
	grid := core.CampaignSetup{
		AttackName: "delay",
		Targets:    []string{"vehicle.2"},
		Values:     []float64{0.4, 2.0},
		Durations: []des.Time{
			2 * des.Second, 4 * des.Second, 6 * des.Second,
			9 * des.Second, 12 * des.Second, 16 * des.Second,
			20 * des.Second, 25 * des.Second,
		},
	}
	for s := 0; s < 25; s++ {
		grid.Starts = append(grid.Starts, 17*des.Second+des.Time(s)*200*des.Millisecond)
	}
	for _, mode := range []struct {
		name      string
		reference bool
		earlyExit bool
	}{
		{name: "reference", reference: true},
		{name: "trie"},
		{name: "trie+early-exit", earlyExit: true},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			oneProc(b)
			eng := newEngine(b, core.EngineConfig{Scenario: ts, EarlyExit: mode.earlyExit, Reference: mode.reference})
			var counts classify.Counts
			run := func() {
				r, err := runner.New(eng, runner.Options{Workers: 1})
				if err != nil {
					b.Fatalf("runner.New: %v", err)
				}
				res, err := r.Run(context.Background(), grid)
				if err != nil {
					b.Fatalf("Run: %v", err)
				}
				counts = res.Counts
			}
			// One untimed campaign runs the golden run and fills the pools,
			// so allocs/op is the steady state whatever b.N is.
			run()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(counts.Severe), "severe")
			b.ReportMetric(float64(counts.Total()), "experiments")
		})
	}
}

// BenchmarkGoldenCSVExport measures the Fig. 4 CSV export path.
func BenchmarkGoldenCSVExport(b *testing.B) {
	eng := newEngine(b, core.EngineConfig{})
	log, _, err := eng.GoldenRun()
	if err != nil {
		b.Fatalf("GoldenRun: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := log.WriteCSV(discard{}); err != nil {
			b.Fatalf("WriteCSV: %v", err)
		}
	}
	_ = trace.VehicleSample{}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkCampaignParallel tracks the campaign hot path end-to-end
// through the production runner (streaming, grid-order release): the
// same 24-experiment grid executed sequentially and on all cores. The
// workers=1/GOMAXPROCS pair exposes the parallel speedup trajectory;
// the custom metric pins the outcome shape so a perf change that breaks
// determinism is caught here too.
func BenchmarkCampaignParallel(b *testing.B) {
	grid := core.CampaignSetup{
		AttackName: "delay",
		Targets:    []string{"vehicle.2"},
		Values:     []float64{0.4, 2.0},
		Starts:     []des.Time{17 * des.Second, 19 * des.Second, 21 * des.Second},
		Durations:  []des.Time{2 * des.Second, 5 * des.Second, 10 * des.Second, 30 * des.Second},
	}
	for _, w := range []struct {
		name    string
		workers int
	}{
		{name: "workers=1", workers: 1},
		{name: "workers=GOMAXPROCS", workers: runtime.GOMAXPROCS(0)},
	} {
		w := w
		b.Run(w.name, func(b *testing.B) {
			eng := newEngine(b, core.EngineConfig{})
			b.ResetTimer()
			var counts classify.Counts
			for i := 0; i < b.N; i++ {
				r, err := runner.New(eng, runner.Options{Workers: w.workers})
				if err != nil {
					b.Fatalf("runner.New: %v", err)
				}
				res, err := r.Run(context.Background(), grid)
				if err != nil {
					b.Fatalf("Run: %v", err)
				}
				counts = res.Counts
			}
			b.ReportMetric(float64(counts.Severe), "severe")
			b.ReportMetric(float64(counts.Total()), "experiments")
		})
	}
}

// BenchmarkCampaignMatrix runs a registry-expanded scenario x attack
// matrix (2 scenarios x 2 attack families on representative sub-grids)
// through the flattened-grid matrix executor, covering per-cell golden
// runs, engine reuse across same-scenario cells, checkpoint-trie
// duration chaining inside the delay cells and per-cell classification.
// It runs one worker on one P (oneProc).
func BenchmarkCampaignMatrix(b *testing.B) {
	m := registry.Matrix{
		Scenarios: []registry.MatrixScenario{
			{Name: "paper-platoon"},
			{Name: "platoon", Label: "platoon-8", Params: param.Params{"nrVehicles": 8}},
		},
		Attacks: []registry.MatrixAttack{
			{
				Name:      "delay",
				Values:    []float64{0.6, 3.0},
				Starts:    []des.Time{17 * des.Second, 21 * des.Second},
				Durations: []des.Time{5 * des.Second, 10 * des.Second, 18 * des.Second},
			},
			{
				Name:      "dos",
				Values:    []float64{60},
				Starts:    []des.Time{17 * des.Second, 21 * des.Second},
				Durations: []des.Time{60 * des.Second},
			},
		},
	}
	expanded, err := m.Expand()
	if err != nil {
		b.Fatalf("Expand: %v", err)
	}
	cells := make([]runner.MatrixCell, len(expanded))
	for i, c := range expanded {
		cells[i] = runner.MatrixCell{
			Scenario: c.Scenario,
			Attack:   c.Attack,
			Engine: core.EngineConfig{
				Scenario:    c.Def.Traffic,
				Comm:        c.Def.Comm,
				Controllers: c.Def.Controllers,
				Seed:        1,
			},
			Setup: c.Setup,
		}
	}
	oneProc(b)
	b.ResetTimer()
	var res *runner.MatrixResult
	for i := 0; i < b.N; i++ {
		res, err = runner.RunMatrix(context.Background(), cells, runner.Options{Workers: 1})
		if err != nil {
			b.Fatalf("RunMatrix: %v", err)
		}
	}
	b.ReportMetric(float64(len(res.Cells)), "cells")
	b.ReportMetric(float64(res.Counts.Severe), "severe")
	b.ReportMetric(float64(res.Counts.Total()), "experiments")
}

// oneProc runs the rest of the benchmark on one P. sync.Pool caches per
// P, so with more a worker that moves between a Put and the next Get
// misses its pooled workspace and builds another, and allocs/op follows
// scheduling instead of the code.
func oneProc(b *testing.B) {
	prev := runtime.GOMAXPROCS(1)
	b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
