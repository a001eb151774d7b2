package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"comfase/internal/invariant"
	"comfase/internal/obs"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
	"comfase/internal/trace"
	"comfase/internal/traffic"
)

// The tests in this file pin wreck elision (DESIGN.md §12): a run whose
// followers are all halted stops at that collision and records its
// remaining steps from the golden log, and must equal, bit for bit, the
// reference engine, which simulates it to the horizon
// (EngineConfig.Reference).

// wreckPair is an engine that elides wrecks, its counters, and the
// reference engine on the same configuration.
type wreckPair struct {
	eng, ref *Engine
	reg      *obs.Registry
}

// newWreckPair builds the pair on the paper scenario with n vehicles, the
// given horizon (0 keeps the paper's) and event budget, and records the
// golden run of each.
func newWreckPair(tb testing.TB, n int, horizon des.Time, budget uint64) wreckPair {
	tb.Helper()
	ts := scenario.PaperScenario()
	ts.NrVehicles = n
	if horizon > 0 {
		ts.TotalSimTime = horizon
	}
	p := wreckPair{reg: obs.NewRegistry()}
	var err error
	if p.eng, err = NewEngine(EngineConfig{Scenario: ts, Comm: scenario.PaperCommModel(), Seed: 1, EventBudget: budget, Metrics: p.reg}); err != nil {
		tb.Fatal(err)
	}
	if p.ref, err = NewEngine(EngineConfig{Scenario: ts, Comm: scenario.PaperCommModel(), Seed: 1, EventBudget: budget, Reference: true}); err != nil {
		tb.Fatal(err)
	}
	for _, e := range []*Engine{p.eng, p.ref} {
		if _, _, err := e.GoldenRun(); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

func (p wreckPair) elisions() uint64 { return p.reg.Counter("engine.wreck_elisions").Load() }

// allFollowersCollided reports whether every follower appears in the
// collision log, which is when every follower ends halted: only a
// collision halts a vehicle, and it halts both of its vehicles.
func allFollowersCollided(n int, res ExperimentResult) bool {
	in := make(map[string]bool, n)
	for _, c := range res.Collisions {
		in[c.Collider], in[c.Victim] = true, true
	}
	for i := 2; i <= n; i++ {
		if !in[scenario.VehicleID(i)] {
			return false
		}
	}
	return true
}

// checkFresh runs spec on the fresh path of both engines and compares
// result and full log; it reports whether the elided run stopped early
// and whether every follower ends the run halted.
func (p wreckPair) checkFresh(t *testing.T, spec ExperimentSpec) (elided, halted bool) {
	t.Helper()
	before := p.elisions()
	got, gotLog, err := p.eng.RunExperimentWithLog(spec)
	if err != nil {
		t.Fatalf("fresh %v: %v", spec, err)
	}
	elided = p.elisions() > before
	want, wantLog, err := p.ref.RunExperimentWithLog(spec)
	if err != nil {
		t.Fatalf("fresh reference %v: %v", spec, err)
	}
	sameOutcome(t, "fresh "+spec.String(), got, want)
	if gotLog.Len() != wantLog.Len() {
		t.Fatalf("fresh %v: log of %d samples, want %d", spec, gotLog.Len(), wantLog.Len())
	}
	sameSuffix(t, "fresh "+spec.String(), gotLog, wantLog)
	halted = allFollowersCollided(len(want.MaxDecelPerVehicle), want)
	if elided && !halted {
		t.Errorf("fresh %v: elided, but a follower ends the reference run unhalted: %v", spec, want.Collisions)
	}
	return elided, halted
}

// wreckSession is one engine's group session with a log recorder that
// every fork writes to afresh.
type wreckSession struct {
	gs  *GroupSession
	log swapLog
}

// swapLog forwards samples to the log of the run in progress.
type swapLog struct{ l *trace.FullLog }

func (s *swapLog) OnSample(t des.Time, st []trace.VehicleSample) { s.l.OnSample(t, st) }

func openWreckSession(t *testing.T, e *Engine, start des.Time) *wreckSession {
	t.Helper()
	gs, err := e.BeginGroup(context.Background(), start)
	if err != nil {
		t.Fatalf("BeginGroup(%v): %v", start, err)
	}
	s := &wreckSession{gs: gs}
	gs.sim.AddRecorder(&s.log)
	return s
}

func (s *wreckSession) run(t *testing.T, spec ExperimentSpec, retain bool) (ExperimentResult, *trace.FullLog) {
	t.Helper()
	e := s.gs.e
	s.log.l = trace.NewFullLogCap(s.gs.sim.VehicleIDs(), int(e.cfg.Scenario.TotalSimTime/e.cfg.Scenario.StepLength)+2)
	res, err := s.gs.RunExperiment(context.Background(), spec, retain)
	if err != nil {
		t.Fatalf("%v: %v", spec, err)
	}
	return res, s.log.l
}

// checkGroup runs same-start specs, in order, through a group session of
// each engine: forked from the prefix, or trie-chained when chain is set
// (each spec retains its boundary for a next spec of the same value). It
// compares each result and the logs recorded from the fork points, checks
// that every elided run stopped with all of its followers halted, and
// returns the number of elided runs and of runs whose followers all end
// halted.
func (p wreckPair) checkGroup(t *testing.T, specs []ExperimentSpec, chain bool) (elided, halted int) {
	t.Helper()
	got := openWreckSession(t, p.eng, specs[0].Start)
	defer got.gs.Close()
	want := openWreckSession(t, p.ref, specs[0].Start)
	defer want.gs.Close()
	path := "forked "
	if chain {
		path = "chained "
	}
	for i, spec := range specs {
		retain := chain && i+1 < len(specs) && specs[i+1].Value == spec.Value && specs[i+1].Attack == spec.Attack
		before := p.elisions()
		res, log := got.run(t, spec, retain)
		if p.elisions() > before {
			elided++
			for _, m := range got.gs.sim.Members[1:] {
				if !m.Vehicle().Halted() {
					t.Errorf("%s%v: elided with %s still driving", path, spec, m.ID())
				}
			}
		}
		wantRes, wantLog := want.run(t, spec, retain)
		if allFollowersCollided(len(wantRes.MaxDecelPerVehicle), wantRes) {
			halted++
		}
		sameOutcome(t, path+spec.String(), res, wantRes)
		// A chained run forks from its chain's last boundary, and a run
		// stopped inside its window leaves none, so the two logs may start
		// at different boundaries; the shorter must be the other's tail.
		if log.Len() < wantLog.Len() {
			sameSuffix(t, path+spec.String(), log, wantLog)
		} else {
			sameSuffix(t, path+spec.String(), wantLog, log)
		}
	}
	if elided != halted {
		t.Errorf("%sstart %v: %d runs elided, %d end with every follower halted", path, specs[0].Start, elided, halted)
	}
	return elided, halted
}

// byStart splits a grid into its same-start groups, in grid order.
func byStart(specs []ExperimentSpec) [][]ExperimentSpec {
	var groups [][]ExperimentSpec
	for i, spec := range specs {
		if i == 0 || spec.Start != specs[i-1].Start {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], spec)
	}
	return groups
}

// delaySlice is the paper-delay benchmark slice: PD 0.2, 1.2 and 2.2 s,
// all 25 start times, all 30 durations; 2,250 runs.
func delaySlice() CampaignSetup {
	setup := PaperDelayCampaign()
	setup.Values = []float64{0.2, 1.2, 2.2}
	return setup
}

// sliceWrecks is the number of delay-slice runs whose followers all end
// halted.
const sliceWrecks = 986

// TestOracleWreckElisionDelaySlice: on the 4-vehicle delay slice every
// run equals its reference, trie-chained, and elision fires exactly on
// the runs whose followers all end halted. Every third run of the first
// and the last start time checks the fresh and the forked path the same
// way. Under the race detector it chains the first and the last start
// time and checks the first start time's sample only.
func TestOracleWreckElisionDelaySlice(t *testing.T) {
	p := newWreckPair(t, 4, 0, 0)
	groups := byStart(delaySlice().Experiments())
	if len(groups) != 25 || len(groups[0]) != 90 {
		t.Fatalf("slice has %d start times of %d runs, want 25 of 90", len(groups), len(groups[0]))
	}
	elided, halted := 0, 0
	for g, group := range groups {
		if raceEnabled && g%24 != 0 {
			continue
		}
		e, h := p.checkGroup(t, group, true)
		elided += e
		halted += h
	}
	if !raceEnabled && halted != sliceWrecks {
		t.Errorf("%d runs end with every follower halted, want %d", halted, sliceWrecks)
	}
	if got := p.elisions(); got != uint64(elided) || elided == 0 {
		t.Errorf("engine.wreck_elisions = %d, chained runs elided %d", got, elided)
	}
	if misses := p.reg.Counter("engine.wreck_golden_misses").Load(); misses != 0 {
		t.Errorf("engine.wreck_golden_misses = %d: a delay attack moved the leader", misses)
	}

	freshElided := 0
	for _, g := range []int{0, len(groups) - 1} {
		if raceEnabled && g > 0 {
			break
		}
		var group []ExperimentSpec
		for i := 0; i < len(groups[g]); i += 3 {
			group = append(group, groups[g][i])
		}
		forked, halted := p.checkGroup(t, group, false)
		fresh := 0
		for _, spec := range group {
			if e, _ := p.checkFresh(t, spec); e {
				fresh++
			}
		}
		if forked != fresh || fresh != halted {
			t.Errorf("start %v: %d forked and %d fresh runs elided, %d end with every follower halted", group[0].Start, forked, fresh, halted)
		}
		freshElided += fresh
	}
	if freshElided == 0 {
		t.Error("no fresh run of the sample elided")
	}
}

// matrix16 is a 16-vehicle jamming and DoS cell: jamming at 5 and
// 20 dBm for 5 and 10 s, DoS to the horizon, from three start times.
func matrix16() []ExperimentSpec {
	var specs []ExperimentSpec
	for _, start := range []des.Time{17 * des.Second, 19 * des.Second, 21 * des.Second} {
		for _, v := range []float64{5, 20} {
			for _, d := range []des.Time{5 * des.Second, 10 * des.Second} {
				specs = append(specs, ExperimentSpec{Attack: "jamming", Targets: []string{"vehicle.2"}, Value: v, Start: start, Duration: d})
			}
		}
		specs = append(specs, ExperimentSpec{Attack: "dos", Targets: []string{"vehicle.2"}, Value: 60, Start: start, Duration: 60 * des.Second})
	}
	for i := range specs {
		specs[i].Nr = i
	}
	return specs
}

// TestOracleWreckElision16Vehicles: 16-vehicle jamming and DoS runs equal
// their references fresh, forked and chained (jamming and DoS do not
// chain, so every chained run forks from the prefix too). Under the race
// detector it runs two of the first start time's runs, fresh and forked.
func TestOracleWreckElision16Vehicles(t *testing.T) {
	p := newWreckPair(t, 16, 0, 0)
	groups := byStart(matrix16())
	if raceEnabled {
		// Jamming at 5 dBm for 10 s and DoS.
		groups = [][]ExperimentSpec{{groups[0][1], groups[0][4]}}
	}
	elided := 0
	for _, group := range groups {
		for _, spec := range group {
			if e, _ := p.checkFresh(t, spec); e {
				elided++
			}
		}
		p.checkGroup(t, group, false)
		if !raceEnabled {
			p.checkGroup(t, group, true)
		}
	}
	if elided == 0 {
		t.Error("no 16-vehicle run elided")
	}
}

// TestOracleWreckElisionJammingSiblings: a jamming run stopped inside its
// window leaves its jammer installed; the next fork restores the prefix,
// so a sibling that does not wreck must still equal its fresh run.
func TestOracleWreckElisionJammingSiblings(t *testing.T) {
	p := newWreckPair(t, 16, 0, 0)
	jam := func(nr int, d des.Time) ExperimentSpec {
		return ExperimentSpec{Nr: nr, Attack: "jamming", Targets: []string{"vehicle.2"}, Value: 5, Start: 17 * des.Second, Duration: d}
	}
	stopped, live := jam(1, 10*des.Second), jam(2, des.Second)
	s := openWreckSession(t, p.eng, stopped.Start)
	defer s.gs.Close()
	for _, c := range []struct {
		spec   ExperimentSpec
		elided bool
	}{{stopped, true}, {live, false}} {
		before := p.elisions()
		res, log := s.run(t, c.spec, false)
		if got := p.elisions() > before; got != c.elided {
			t.Fatalf("%v: elided %v, want %v", c.spec, got, c.elided)
		}
		if c.elided && s.gs.sim.Kernel.Now() >= c.spec.End(p.eng.cfg.Scenario.TotalSimTime) {
			t.Fatalf("%v: stopped at %v, not inside its window", c.spec, s.gs.sim.Kernel.Now())
		}
		fresh, freshLog, err := p.ref.RunExperimentWithLog(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, c.spec.String(), res, fresh)
		// The fresh log starts at t=0, the forked one at the fork point.
		sameSuffix(t, c.spec.String(), log, freshLog)
	}
}

// TestOracleWreckElisionOffUnderEventBudget: an event budget counts dispatched
// events, so elision stays off and the run simulates to the horizon.
func TestOracleWreckElisionOffUnderEventBudget(t *testing.T) {
	p := newWreckPair(t, 4, 0, 1<<40)
	spec := ExperimentSpec{Attack: "delay", Targets: []string{"vehicle.2"}, Value: 2.2, Start: 17 * des.Second, Duration: 30 * des.Second}
	elided, halted := p.checkFresh(t, spec)
	if elided {
		t.Error("elided under an event budget")
	}
	if !halted {
		t.Fatalf("%v does not halt every follower; pick a run that would elide", spec)
	}
}

// TestOracleWreckElisionFaultWins: an invariant fault latched in the step
// whose collision froze the platoon fails the run, as it does without
// elision; the stop does not turn it into a result.
func TestOracleWreckElisionFaultWins(t *testing.T) {
	ts := scenario.PaperScenario()
	reg := obs.NewRegistry()
	eng, err := NewEngine(EngineConfig{Scenario: ts, Comm: scenario.PaperCommModel(), Seed: 1, Invariants: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	spec := ExperimentSpec{Attack: "delay", Targets: []string{"vehicle.2"}, Value: 2.2, Start: 17 * des.Second, Duration: 30 * des.Second}
	gs, err := eng.BeginGroup(context.Background(), spec.Start)
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	// Registered after the wreck watch, so it runs after it in the same
	// collision pass and before the step's invariant checks.
	gs.sim.Traffic.OnCollision(func(traffic.Collision) {
		if gs.u.wreck.stopped {
			gs.sim.Members[3].Vehicle().State.Pos = math.NaN()
		}
	})
	if _, err := gs.RunExperiment(context.Background(), spec, false); !errors.Is(err, invariant.ErrInvariant) {
		t.Fatalf("err = %v, want an invariant fault", err)
	}
	if !gs.u.wreck.stopped {
		t.Fatal("the wreck watch never stopped the run; pick a run that freezes")
	}
	if n := reg.Counter("engine.wreck_elisions").Load(); n != 0 {
		t.Errorf("engine.wreck_elisions = %d after a faulted run", n)
	}
}

// wreckSeed is one FuzzWreckElision input: a family index into
// AttackNames, a value byte, start and duration in 100 ms steps, and the
// platoon size (8 vehicles if eight, else 4); elides is not an input but
// whether the production engine elides the run's wreck.
type wreckSeed struct {
	family, value, start, dur uint8
	eight, elides             bool
}

// wreckSeeds seed FuzzWreckElision. AttackNames is sorted: 2 is delay, 3
// DoS, 5 jamming, 7 packet loss.
var wreckSeeds = []wreckSeed{
	{2, 200, 170, 100, false, true}, // PD 2.36 s from 17 s for 10 s
	{3, 0, 170, 255, true, true},    // DoS from 17 s to the horizon
	{5, 128, 170, 100, true, true},  // about 5 dBm from 17 s for 10 s
	{7, 255, 50, 20, false, false},  // every frame lost from 5 s for 2 s: no wreck
}

// checkWreckSeed runs one FuzzWreckElision input fresh and forked on the
// pair of its platoon size, built on first use, against the reference,
// and reports whether the fresh run elided its wreck.
func checkWreckSeed(t *testing.T, pairs map[bool]wreckPair, s wreckSeed) (elided bool) {
	t.Helper()
	names := AttackNames()
	name := names[int(s.family)%len(names)]
	p, ok := pairs[s.eight]
	if !ok {
		n := 4
		if s.eight {
			n = 8
		}
		p = newWreckPair(t, n, 30*des.Second, 0)
		pairs[s.eight] = p
	}
	spec := ExperimentSpec{
		Nr:       int(s.value),
		Attack:   name,
		Targets:  []string{"vehicle.2"},
		Value:    fuzzValue(name, s.value),
		Start:    des.Time(s.start) * 100 * des.Millisecond,
		Duration: des.Time(s.dur)*100*des.Millisecond + des.Millisecond,
	}
	elided, _ = p.checkFresh(t, spec)
	p.checkGroup(t, []ExperimentSpec{spec}, false)
	return elided
}

// FuzzWreckElision: any family, value, window and platoon size (4 or 8
// vehicles, 30 s horizon) gives the same result and log with every exact
// fast path on as on the reference engine, fresh and forked.
func FuzzWreckElision(f *testing.F) {
	for _, s := range wreckSeeds {
		f.Add(s.family, s.value, s.start, s.dur, s.eight)
	}
	pairs := map[bool]wreckPair{}
	f.Fuzz(func(t *testing.T, family, value, start, dur uint8, eight bool) {
		checkWreckSeed(t, pairs, wreckSeed{family: family, value: value, start: start, dur: dur, eight: eight})
	})
}

// TestWreckSeedsElide keeps the seed corpus honest: the production engine
// must elide the wrecks of the seeds that wreck, or FuzzWreckElision
// compares two runs simulated to the horizon.
func TestWreckSeedsElide(t *testing.T) {
	pairs := map[bool]wreckPair{}
	for i, s := range wreckSeeds {
		if got := checkWreckSeed(t, pairs, s); got != s.elides {
			t.Errorf("seed %d: elided %v, want %v", i, got, s.elides)
		}
	}
}

// fuzzValue maps a byte onto a valid value of the attack family.
func fuzzValue(name string, b uint8) float64 {
	u := float64(b) / 255
	switch name {
	case "packet-loss":
		return u
	case "jamming":
		return -20 + 50*u // dBm
	case "corruption", "calibration":
		return 0.1 + 4*u // a scale factor, non-zero
	case "sybil":
		return 9 * u // m/s^2
	case "falsification":
		return 20 * u
	}
	return 3 * (float64(b) + 1) / 256 // seconds of delay, replay age or nominal PD, all positive
}
