// Package core is ComFASE itself: the communication fault and attack
// simulation engine. It provides the attack models of Table I (delay,
// denial-of-service) plus the extension models the paper's future-work
// section anticipates (packet loss/jamming, falsification, replay), the
// campaign configuration of Algorithm 1 Step-1, and the Engine that
// executes golden runs (Step-2), attack injection experiments with the
// three-phase SimUntil flow (Step-3) and result classification (Step-4).
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"comfase/internal/mac"
	"comfase/internal/msg"
	"comfase/internal/nic"
	"comfase/internal/sim/des"
	"comfase/internal/sim/rng"
)

// AttackModel is a ComFASE attack/fault model. Most models are
// nic.Interceptors (they rewrite frame deliveries while installed on the
// Air — the engine's CommModelEditor step); physical-layer models
// implement Installer instead. The engine applies whichever mechanism
// the concrete model provides.
type AttackModel interface {
	// Name identifies the model ("delay", "dos", ...).
	Name() string
	// Targets returns the attacked vehicle IDs (sorted).
	Targets() []string
}

// ChainableModel marks attack models whose interception behaviour is a
// pure function of the intercepted frame (time, src, dst, payload): no
// internal mutable state, no random stream, no dependence on the
// experiment number. Two instances built from specs that differ only in
// attack duration then behave identically over the shared part of the
// attacked interval, which lets the checkpoint trie reuse a mid-attack
// snapshot taken under one sibling's model for the next, longer sibling
// (GroupSession.RunExperiment). Models with per-experiment
// randomness (packet loss, corruption — their RNG streams are keyed by
// experiment number) or physical-layer installation (Installer) must NOT
// implement it.
type ChainableModel interface {
	AttackModel
	// ChainableAcrossDurations is a marker method; implementations
	// promise the purity contract documented on ChainableModel.
	ChainableAcrossDurations()
}

// targetSet answers membership for the targetVehicles parameter.
type targetSet map[string]bool

func newTargetSet(ids []string) (targetSet, error) {
	if len(ids) == 0 {
		return nil, errors.New("core: attack needs at least one target vehicle")
	}
	s := make(targetSet, len(ids))
	for _, id := range ids {
		if id == "" {
			return nil, errors.New("core: empty target vehicle ID")
		}
		s[id] = true
	}
	return s, nil
}

func (s targetSet) sorted() []string {
	out := make([]string, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// involves reports whether the link touches an attacked vehicle. The
// paper's attacks hit both the sender and receiver modules of the target
// (§IV-A3: "reception and transmission of messages of a specific
// vehicle").
func (s targetSet) involves(src, dst string) bool {
	return s[src] || s[dst]
}

// DelayAttack models the paper's delay attack (Table I): messages to or
// from the target vehicles are blocked and retransmitted later, realised
// by overriding the channel's propagation-delay parameter with the
// attack value while the attack is active.
type DelayAttack struct {
	delay   des.Time
	targets targetSet
}

var (
	_ AttackModel     = (*DelayAttack)(nil)
	_ nic.Interceptor = (*DelayAttack)(nil)
	_ ChainableModel  = (*DelayAttack)(nil)
)

// ChainableAcrossDurations marks the delay attack as a pure interceptor.
func (a *DelayAttack) ChainableAcrossDurations() {}

// NewDelayAttack builds a delay attack with the given PD attack value.
func NewDelayAttack(delay des.Time, targets ...string) (*DelayAttack, error) {
	if delay < 0 {
		return nil, errors.New("core: delay attack value must be non-negative")
	}
	ts, err := newTargetSet(targets)
	if err != nil {
		return nil, err
	}
	return &DelayAttack{delay: delay, targets: ts}, nil
}

// Name implements AttackModel.
func (a *DelayAttack) Name() string { return "delay" }

// Targets implements AttackModel.
func (a *DelayAttack) Targets() []string { return a.targets.sorted() }

// Delay returns the attack's PD value.
func (a *DelayAttack) Delay() des.Time { return a.delay }

// Intercept implements nic.Interceptor.
func (a *DelayAttack) Intercept(_ des.Time, src, dst string, _ mac.Frame) nic.Verdict {
	if !a.targets.involves(src, dst) {
		return nic.Verdict{}
	}
	return nic.Verdict{OverrideDelay: true, Delay: a.delay}
}

// DoSAttack models the paper's denial-of-service attack (Table I):
// the target's communication is jammed from attack start until the end
// of the simulation, realised by setting the propagation delay to the
// total simulation time so no message ever arrives within the horizon.
type DoSAttack struct {
	horizon des.Time
	targets targetSet
}

var (
	_ AttackModel     = (*DoSAttack)(nil)
	_ nic.Interceptor = (*DoSAttack)(nil)
	_ ChainableModel  = (*DoSAttack)(nil)
)

// ChainableAcrossDurations marks the DoS attack as a pure interceptor.
func (a *DoSAttack) ChainableAcrossDurations() {}

// NewDoSAttack builds a DoS attack. horizon is the totalSimTime whose
// value the propagation delay is pinned to (60 s in the paper).
func NewDoSAttack(horizon des.Time, targets ...string) (*DoSAttack, error) {
	if horizon <= 0 {
		return nil, errors.New("core: DoS horizon must be positive")
	}
	ts, err := newTargetSet(targets)
	if err != nil {
		return nil, err
	}
	return &DoSAttack{horizon: horizon, targets: ts}, nil
}

// Name implements AttackModel.
func (a *DoSAttack) Name() string { return "dos" }

// Targets implements AttackModel.
func (a *DoSAttack) Targets() []string { return a.targets.sorted() }

// Intercept implements nic.Interceptor.
func (a *DoSAttack) Intercept(_ des.Time, src, dst string, _ mac.Frame) nic.Verdict {
	if !a.targets.involves(src, dst) {
		return nic.Verdict{}
	}
	return nic.Verdict{OverrideDelay: true, Delay: a.horizon}
}

// PacketLossAttack is an extension model: a jammer that destroys each
// frame to/from the targets with a fixed probability (1.0 = hard jam,
// dropping instead of delaying).
type PacketLossAttack struct {
	p       float64
	rng     *rng.Source
	targets targetSet
}

var (
	_ AttackModel     = (*PacketLossAttack)(nil)
	_ nic.Interceptor = (*PacketLossAttack)(nil)
)

// NewPacketLossAttack builds a loss attack with drop probability p.
func NewPacketLossAttack(p float64, src *rng.Source, targets ...string) (*PacketLossAttack, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("core: loss probability %v outside [0,1]", p)
	}
	if src == nil {
		return nil, errors.New("core: packet loss attack needs an RNG source")
	}
	ts, err := newTargetSet(targets)
	if err != nil {
		return nil, err
	}
	return &PacketLossAttack{p: p, rng: src, targets: ts}, nil
}

// Name implements AttackModel.
func (a *PacketLossAttack) Name() string { return "packet-loss" }

// Targets implements AttackModel.
func (a *PacketLossAttack) Targets() []string { return a.targets.sorted() }

// Intercept implements nic.Interceptor.
func (a *PacketLossAttack) Intercept(_ des.Time, src, dst string, _ mac.Frame) nic.Verdict {
	if !a.targets.involves(src, dst) {
		return nic.Verdict{}
	}
	return nic.Verdict{Drop: a.rng.Bernoulli(a.p)}
}

// Falsifier rewrites a beacon in flight (position, speed or acceleration
// falsification à la Iorio et al. / Boeira et al.).
type Falsifier func(b msg.Beacon) msg.Beacon

// FalsificationAttack is an extension model: beacons transmitted by the
// target vehicles are replaced with falsified copies before delivery.
type FalsificationAttack struct {
	fn      Falsifier
	targets targetSet
}

var (
	_ AttackModel     = (*FalsificationAttack)(nil)
	_ nic.Interceptor = (*FalsificationAttack)(nil)
	_ ChainableModel  = (*FalsificationAttack)(nil)
)

// ChainableAcrossDurations marks the falsification attack as chainable.
// This extends the Falsifier contract: fn must be a pure rewrite of the
// beacon it is given (no captured mutable state, no randomness), which
// every registry-built falsifier satisfies.
func (a *FalsificationAttack) ChainableAcrossDurations() {}

// NewFalsificationAttack builds a falsification attack. Only frames SENT
// by a target are falsified (the attacker impersonates the target).
func NewFalsificationAttack(fn Falsifier, targets ...string) (*FalsificationAttack, error) {
	if fn == nil {
		return nil, errors.New("core: falsifier function is required")
	}
	ts, err := newTargetSet(targets)
	if err != nil {
		return nil, err
	}
	return &FalsificationAttack{fn: fn, targets: ts}, nil
}

// Name implements AttackModel.
func (a *FalsificationAttack) Name() string { return "falsification" }

// Targets implements AttackModel.
func (a *FalsificationAttack) Targets() []string { return a.targets.sorted() }

// Intercept implements nic.Interceptor.
func (a *FalsificationAttack) Intercept(_ des.Time, src, _ string, f mac.Frame) nic.Verdict {
	if !a.targets[src] || !f.HasBeacon {
		return nic.Verdict{}
	}
	return nic.Verdict{OverrideBeacon: true, Beacon: a.fn(f.Beacon.Clone())}
}

// ReplayAttack is an extension model: frames from the targets are
// delivered, but the payload is replaced with the state the target
// advertised ReplayAge earlier — a record-and-replay jammer. It works by
// delaying the frames by ReplayAge, which is equivalent for periodic
// state beacons.
type ReplayAttack struct {
	age     des.Time
	targets targetSet
}

var (
	_ AttackModel     = (*ReplayAttack)(nil)
	_ nic.Interceptor = (*ReplayAttack)(nil)
	_ ChainableModel  = (*ReplayAttack)(nil)
)

// ChainableAcrossDurations marks the replay attack as a pure interceptor.
func (a *ReplayAttack) ChainableAcrossDurations() {}

// NewReplayAttack builds a replay attack that serves state age seconds
// stale.
func NewReplayAttack(age des.Time, targets ...string) (*ReplayAttack, error) {
	if age <= 0 {
		return nil, errors.New("core: replay age must be positive")
	}
	ts, err := newTargetSet(targets)
	if err != nil {
		return nil, err
	}
	return &ReplayAttack{age: age, targets: ts}, nil
}

// Name implements AttackModel.
func (a *ReplayAttack) Name() string { return "replay" }

// Targets implements AttackModel.
func (a *ReplayAttack) Targets() []string { return a.targets.sorted() }

// Intercept implements nic.Interceptor.
func (a *ReplayAttack) Intercept(_ des.Time, src, _ string, _ mac.Frame) nic.Verdict {
	if !a.targets[src] {
		return nic.Verdict{}
	}
	return nic.Verdict{OverrideDelay: true, Delay: a.age}
}

// describeTargets renders a target list for logs.
func describeTargets(targets []string) string { return strings.Join(targets, ",") }
