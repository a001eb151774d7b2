// Package config parses JSON experiment configurations for the ComFASE
// command-line tools. A config file describes the Step-1 objects of
// Algorithm 1 (traffic scenario, communication model, attack campaign)
// in human units (seconds, m/s); zero values fall back to the paper's
// defaults, so "{}" reproduces the paper's setup exactly.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"comfase/internal/core"
	"comfase/internal/phy"
	"comfase/internal/platoon"
	"comfase/internal/registry/param"
	"comfase/internal/runner"
	"comfase/internal/safety"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
	"comfase/internal/sim/rng"
	"comfase/internal/traffic"
	"comfase/internal/wave1609"
)

// Range expands to an inclusive arithmetic sequence [From, To] with the
// given Step. Explicit lists and ranges can be mixed; both contribute.
type Range struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
	Step float64 `json:"step"`
}

// Expand returns the sequence, or an error for a malformed range.
func (r Range) Expand() ([]float64, error) {
	if r.Step <= 0 {
		return nil, fmt.Errorf("config: range step %v must be positive", r.Step)
	}
	if r.To < r.From {
		return nil, fmt.Errorf("config: range [%v,%v] is inverted", r.From, r.To)
	}
	var out []float64
	// Index-based loop avoids float accumulation drift.
	n := int(math.Floor((r.To-r.From)/r.Step + 1e-9))
	for i := 0; i <= n; i++ {
		out = append(out, r.From+float64(float64(i)*r.Step))
	}
	return out, nil
}

// Vector is a list of values, an expandable range, or both.
type Vector struct {
	Values []float64 `json:"values,omitempty"`
	Range  *Range    `json:"range,omitempty"`
}

// Expand returns the merged value list.
func (v Vector) Expand() ([]float64, error) {
	out := append([]float64(nil), v.Values...)
	if v.Range != nil {
		expanded, err := v.Range.Expand()
		if err != nil {
			return nil, err
		}
		out = append(out, expanded...)
	}
	return out, nil
}

// ManeuverConfig selects the leader's driving pattern.
type ManeuverConfig struct {
	// Type is "sinusoidal", "constant" or "braking".
	Type string `json:"type"`
	// BaseSpeedMps is the cruise/mean speed.
	BaseSpeedMps float64 `json:"baseSpeedMps,omitempty"`
	// AmplitudeMps is the sinusoidal speed swing.
	AmplitudeMps float64 `json:"amplitudeMps,omitempty"`
	// FrequencyHz is the sinusoidal frequency.
	FrequencyHz float64 `json:"frequencyHz,omitempty"`
	// PhaseS is the sinusoidal phase shift in seconds.
	PhaseS float64 `json:"phaseS,omitempty"`
	// BrakeAtS, FinalSpeedMps, DecelMps2 parameterise braking maneuvers.
	BrakeAtS      float64 `json:"brakeAtS,omitempty"`
	FinalSpeedMps float64 `json:"finalSpeedMps,omitempty"`
	DecelMps2     float64 `json:"decelMps2,omitempty"`
}

// Build returns the maneuver, defaulting to the paper's sinusoid.
func (m ManeuverConfig) Build() (traffic.Maneuver, error) {
	switch m.Type {
	case "", "sinusoidal":
		s := scenario.PaperManeuver()
		if m.BaseSpeedMps > 0 {
			s.Base = m.BaseSpeedMps
		}
		if m.AmplitudeMps > 0 {
			s.Amplitude = m.AmplitudeMps
		}
		if m.FrequencyHz > 0 {
			s.Frequency = m.FrequencyHz
		}
		if m.PhaseS != 0 {
			s.Phase = m.PhaseS
		}
		return s, nil
	case "constant":
		speed := m.BaseSpeedMps
		if speed <= 0 {
			speed = 27.78
		}
		return traffic.ConstantSpeed{Speed: speed}, nil
	case "braking":
		b := traffic.Braking{
			CruiseSpeed: m.BaseSpeedMps,
			FinalSpeed:  m.FinalSpeedMps,
			BrakeAt:     m.BrakeAtS,
			Decel:       m.DecelMps2,
		}
		if b.CruiseSpeed <= 0 {
			b.CruiseSpeed = 27.78
		}
		if b.Decel <= 0 {
			b.Decel = 4
		}
		return b, nil
	default:
		return nil, fmt.Errorf("config: unknown maneuver type %q", m.Type)
	}
}

// AEBConfig enables the autonomous-emergency-braking safety monitor on
// every follower. Zero fields fall back to safety.DefaultAEB.
type AEBConfig struct {
	// TTCThresholdS is the time-to-collision trigger in seconds.
	TTCThresholdS float64 `json:"ttcThresholdS,omitempty"`
	// MinGapM is the distance floor in metres.
	MinGapM float64 `json:"minGapM,omitempty"`
	// DecelMps2 is the emergency deceleration magnitude.
	DecelMps2 float64 `json:"decelMps2,omitempty"`
}

// Build returns the monitor.
func (a AEBConfig) Build() (*safety.AEB, error) {
	aeb := safety.DefaultAEB()
	if a.TTCThresholdS > 0 {
		aeb.TTCThreshold = a.TTCThresholdS
	}
	if a.MinGapM > 0 {
		aeb.MinGap = a.MinGapM
	}
	if a.DecelMps2 > 0 {
		aeb.Decel = a.DecelMps2
	}
	return aeb, aeb.Validate()
}

// ScenarioConfig overrides the paper's traffic scenario.
type ScenarioConfig struct {
	NrVehicles     int             `json:"nrVehicles,omitempty"`
	TotalSimTimeS  float64         `json:"totalSimTimeS,omitempty"`
	Lane           int             `json:"lane,omitempty"`
	LeaderStartM   float64         `json:"leaderStartM,omitempty"`
	StepLengthS    float64         `json:"stepLengthS,omitempty"`
	Maneuver       *ManeuverConfig `json:"maneuver,omitempty"`
	MaxSpeedMps    float64         `json:"maxSpeedMps,omitempty"`
	MaxAccelMps2   float64         `json:"maxAccelMps2,omitempty"`
	MaxDecelMps2   float64         `json:"maxDecelMps2,omitempty"`
	VehicleLengthM float64         `json:"vehicleLengthM,omitempty"`
	ActuationLagS  float64         `json:"actuationLagS,omitempty"`
	// AEB equips followers with the emergency-braking monitor.
	AEB *AEBConfig `json:"aeb,omitempty"`
}

// Build returns a TrafficScenario with the paper defaults overridden.
func (c ScenarioConfig) Build() (scenario.TrafficScenario, error) {
	ts := scenario.PaperScenario()
	if c.NrVehicles > 0 {
		ts.NrVehicles = c.NrVehicles
	}
	if c.TotalSimTimeS > 0 {
		ts.TotalSimTime = des.FromSeconds(c.TotalSimTimeS)
	}
	if c.Lane > 0 {
		ts.Lane = c.Lane
	}
	if c.LeaderStartM > 0 {
		ts.LeaderStartPos = c.LeaderStartM
	}
	if c.StepLengthS > 0 {
		ts.StepLength = des.FromSeconds(c.StepLengthS)
	}
	if c.MaxSpeedMps > 0 {
		ts.VehicleTemplate.MaxSpeed = c.MaxSpeedMps
	}
	if c.MaxAccelMps2 > 0 {
		ts.VehicleTemplate.MaxAccel = c.MaxAccelMps2
	}
	if c.MaxDecelMps2 > 0 {
		ts.VehicleTemplate.MaxDecel = c.MaxDecelMps2
	}
	if c.VehicleLengthM > 0 {
		ts.VehicleTemplate.Length = c.VehicleLengthM
	}
	if c.ActuationLagS > 0 {
		ts.VehicleTemplate.ActuationLag = c.ActuationLagS
	}
	if c.Maneuver != nil {
		m, err := c.Maneuver.Build()
		if err != nil {
			return scenario.TrafficScenario{}, err
		}
		ts.Maneuver = m
	}
	if c.AEB != nil {
		aeb, err := c.AEB.Build()
		if err != nil {
			return scenario.TrafficScenario{}, err
		}
		ts.AEB = aeb
	}
	return ts, ts.Validate()
}

// CommConfig overrides the paper's communication model.
type CommConfig struct {
	// PathLoss is "freespace" or "tworay".
	PathLoss string `json:"pathLoss,omitempty"`
	// AccessMode is "continuous" or "alternating" (IEEE 1609.4).
	AccessMode string `json:"accessMode,omitempty"`
	// PacketBits is the packetSize.
	PacketBits int `json:"packetBits,omitempty"`
	// BeaconIntervalS is the beaconingTime in seconds.
	BeaconIntervalS float64 `json:"beaconIntervalS,omitempty"`
	// TxPowerDBm overrides the transmit power.
	TxPowerDBm float64 `json:"txPowerDBm,omitempty"`
	// Decider is "threshold" or "probabilistic".
	Decider string `json:"decider,omitempty"`
	// Fading is "" (off, the paper's setup) or "nakagami".
	Fading string `json:"fading,omitempty"`
	// FadingSeed seeds the fading process (default 1).
	FadingSeed uint64 `json:"fadingSeed,omitempty"`
}

// Build returns a CommModel with the paper defaults overridden.
func (c CommConfig) Build() (scenario.CommModel, error) {
	cm := scenario.PaperCommModel()
	switch c.PathLoss {
	case "", "freespace":
		cm.Channel.PathLoss = phy.FreeSpace{Alpha: 2}
	case "tworay":
		cm.Channel.PathLoss = phy.TwoRayInterference{}
	default:
		return scenario.CommModel{}, fmt.Errorf("config: unknown path loss %q", c.PathLoss)
	}
	switch c.AccessMode {
	case "", "continuous":
		cm.Schedule = wave1609.NewSchedule(wave1609.AccessContinuous)
	case "alternating":
		cm.Schedule = wave1609.NewSchedule(wave1609.AccessAlternating)
	default:
		return scenario.CommModel{}, fmt.Errorf("config: unknown access mode %q", c.AccessMode)
	}
	switch c.Decider {
	case "", "threshold":
		cm.Channel.Decider = phy.DeciderThreshold
	case "probabilistic":
		cm.Channel.Decider = phy.DeciderProbabilistic
	default:
		return scenario.CommModel{}, fmt.Errorf("config: unknown decider %q", c.Decider)
	}
	switch c.Fading {
	case "":
		// The paper's experiments run without fading.
	case "nakagami":
		seed := c.FadingSeed
		if seed == 0 {
			seed = 1
		}
		cm.Channel.Fading = phy.NewNakagamiFading(rng.New(seed, "fading"))
	default:
		return scenario.CommModel{}, fmt.Errorf("config: unknown fading %q", c.Fading)
	}
	if c.PacketBits > 0 {
		cm.PacketBits = c.PacketBits
	}
	if c.BeaconIntervalS > 0 {
		cm.BeaconInterval = des.FromSeconds(c.BeaconIntervalS)
	}
	if c.TxPowerDBm != 0 {
		cm.Channel.TxPowerDBm = c.TxPowerDBm
	}
	return cm, cm.Validate()
}

// CampaignConfig describes the attack campaign grid.
type CampaignConfig struct {
	// Attack names a registered attack family — any name `comfase list`
	// prints (delay, dos, packet-loss, replay, jamming, falsification,
	// sybil, omission, corruption, calibration, ...). Default: delay.
	Attack string `json:"attack"`
	// Params are the family's extra parameters, validated against its
	// registry schema.
	Params map[string]any `json:"params,omitempty"`
	// Targets are the attacked vehicle IDs (default: vehicle.2).
	Targets []string `json:"targets,omitempty"`
	// ValuesS is the attackValuesVector (seconds for delay/dos/replay,
	// probability for packet-loss).
	ValuesS Vector `json:"valuesS"`
	// StartTimesS is the attackStartVector in seconds.
	StartTimesS Vector `json:"startTimesS"`
	// DurationsS is the attackEndVector as start-relative durations.
	DurationsS Vector `json:"durationsS"`
}

// Build expands the vectors into a CampaignSetup. The attack name
// resolves against the attack registry, so every registered family —
// not just the enum kinds — is reachable, and unknown names carry the
// registry's accepted-names list with a nearest-match suggestion.
func (c CampaignConfig) Build() (core.CampaignSetup, error) {
	name := c.Attack
	if name == "" {
		name = "delay"
	}
	entry, err := core.LookupAttack(name)
	if err != nil {
		return core.CampaignSetup{}, fmt.Errorf("config: unknown attack %q: %w", name, err)
	}
	targets := c.Targets
	if len(targets) == 0 {
		targets = []string{"vehicle.2"}
	}
	values, err := c.ValuesS.Expand()
	if err != nil {
		return core.CampaignSetup{}, fmt.Errorf("values: %w", err)
	}
	starts, err := c.StartTimesS.Expand()
	if err != nil {
		return core.CampaignSetup{}, fmt.Errorf("startTimes: %w", err)
	}
	durations, err := c.DurationsS.Expand()
	if err != nil {
		return core.CampaignSetup{}, fmt.Errorf("durations: %w", err)
	}
	setup := core.CampaignSetup{
		Attack:     entry.Kind,
		AttackName: entry.Name,
		Params:     param.Params(c.Params),
		Targets:    targets,
		Values:     values,
	}
	for _, s := range starts {
		setup.Starts = append(setup.Starts, des.FromSeconds(s))
	}
	for _, d := range durations {
		setup.Durations = append(setup.Durations, des.FromSeconds(d))
	}
	return setup, setup.Validate()
}

// RuntimeConfig configures the campaign runtime (internal/runner): how
// the grid is executed rather than what it contains. Command-line flags
// override these settings.
type RuntimeConfig struct {
	// Workers is the number of parallel experiment workers (0 = one, the
	// sequential paper setup; negative = all cores).
	Workers int `json:"workers,omitempty"`
	// Shard is the "i/n" grid slice this process executes (empty = the
	// whole grid). N processes with shards 1/n..n/n produce disjoint
	// result files that `comfase merge` recombines.
	Shard string `json:"shard,omitempty"`
	// ResultsFile streams per-experiment CSV rows to this path as results
	// complete; it is also the file -resume reads back.
	ResultsFile string `json:"resultsFile,omitempty"`
	// CancelCheckEvents is the DES-kernel cancellation poll granularity
	// (0 = the des package default).
	CancelCheckEvents uint64 `json:"cancelCheckEvents,omitempty"`

	// Retries is how many times a failed experiment is re-executed on a
	// fresh workspace before it is quarantined (0 = none).
	Retries int `json:"retries,omitempty"`
	// RetryBackoffMS is the base pause in milliseconds before retry k
	// (linear backoff; 0 retries immediately).
	RetryBackoffMS int `json:"retryBackoffMS,omitempty"`
	// ExperimentTimeoutS is the per-attempt wall-clock watchdog in
	// seconds; an attempt exceeding it is quarantined as a "timeout"
	// failure (0 disables the watchdog).
	ExperimentTimeoutS float64 `json:"experimentTimeoutS,omitempty"`
	// MaxFailures is the campaign failure budget: how many persistently
	// failed experiments are tolerated before the run aborts. 0 (the
	// default) aborts on the first persistent failure; negative streams
	// past any number of failures.
	MaxFailures int `json:"maxFailures,omitempty"`
	// QuarantineFile appends the JSON-lines record of every persistent
	// failure to this path; with -resume it is also read back to skip
	// already-quarantined grid points.
	QuarantineFile string `json:"quarantineFile,omitempty"`
	// Invariants enables the runtime invariant checks (NaN/Inf state,
	// position reversal, unhandled overlap) inside every simulation step.
	Invariants bool `json:"invariants,omitempty"`
	// EventBudget caps the number of kernel events one experiment may
	// execute; exceeding it quarantines the experiment as an
	// "event-budget" failure (0 = unlimited).
	EventBudget uint64 `json:"eventBudget,omitempty"`
	// Checkpoints toggles prefix-checkpoint forking: experiments sharing
	// an attack start time simulate their fault-free prefix once per
	// worker and fork from the snapshot. Results are bit-identical either
	// way; omitted or true leaves forking on (the default), false forces
	// every experiment onto the fresh-build path.
	Checkpoints *bool `json:"checkpoints,omitempty"`
	// CheckpointTrie toggles duration chaining on top of checkpoint
	// forking: same-value experiments run in ascending-duration order and
	// each forks from the previous sibling's mid-attack boundary snapshot
	// instead of re-simulating the shared attacked interval. Results are
	// bit-identical either way; omitted or true leaves chaining on (the
	// default, effective only while checkpoints are on), false degrades
	// every experiment to a plain prefix fork.
	CheckpointTrie *bool `json:"checkpointTrie,omitempty"`
	// EarlyExit enables verdict-aware early termination: an experiment
	// stops simulating once its classification can no longer change (a
	// collision was recorded, or the attack window is over and the
	// platoon re-converged onto the golden trajectory). Classifications
	// and collider attribution are identical either way; the raw
	// kinematic summaries of truncated runs cover a shorter window
	// (DESIGN.md §10). Off by default.
	EarlyExit bool `json:"earlyExit,omitempty"`
	// EarlyExitToleranceMps is the re-stabilisation speed tolerance in
	// m/s (0 = the engine default of 1e-3; only meaningful with EarlyExit).
	EarlyExitToleranceMps float64 `json:"earlyExitToleranceMps,omitempty"`
	// EarlyExitHoldS is how long in seconds the platoon must hold within
	// the tolerance before the verdict counts as decided (0 = the engine
	// default of 5 s; only meaningful with EarlyExit).
	EarlyExitHoldS float64 `json:"earlyExitHoldS,omitempty"`

	// HeartbeatFile periodically publishes a JSON metrics snapshot to this
	// path via atomic rename (internal/obs heartbeat). Empty disables the
	// heartbeat; campaign outputs are byte-identical either way.
	HeartbeatFile string `json:"heartbeatFile,omitempty"`
	// HeartbeatIntervalS is the snapshot period in seconds (0 = the obs
	// package default of 5s; only meaningful with HeartbeatFile set).
	HeartbeatIntervalS float64 `json:"heartbeatIntervalS,omitempty"`
	// MetricsAddr, when non-empty, serves live metrics over HTTP on this
	// address ("127.0.0.1:0" picks a free port): /metrics (snapshot JSON),
	// /debug/vars (expvar) and /debug/pprof (profiling).
	MetricsAddr string `json:"metricsAddr,omitempty"`
}

// Build validates the runtime settings.
func (r RuntimeConfig) Build() (RuntimeSettings, error) {
	var out RuntimeSettings
	out.Workers = r.Workers
	out.ResultsFile = r.ResultsFile
	if r.Shard != "" {
		sh, err := runner.ParseShard(r.Shard)
		if err != nil {
			return RuntimeSettings{}, err
		}
		out.Shard = sh
	}
	if r.Retries < 0 {
		return RuntimeSettings{}, fmt.Errorf("config: negative retries %d", r.Retries)
	}
	out.Retries = r.Retries
	if r.RetryBackoffMS < 0 {
		return RuntimeSettings{}, fmt.Errorf("config: negative retryBackoffMS %d", r.RetryBackoffMS)
	}
	out.RetryBackoff = time.Duration(r.RetryBackoffMS) * time.Millisecond
	if r.ExperimentTimeoutS < 0 {
		return RuntimeSettings{}, fmt.Errorf("config: negative experimentTimeoutS %g", r.ExperimentTimeoutS)
	}
	out.ExperimentTimeout = time.Duration(r.ExperimentTimeoutS * float64(time.Second))
	out.MaxFailures = r.MaxFailures
	out.QuarantineFile = r.QuarantineFile
	out.DisableCheckpoints = r.Checkpoints != nil && !*r.Checkpoints
	out.DisableTrie = r.CheckpointTrie != nil && !*r.CheckpointTrie
	if r.EarlyExitToleranceMps < 0 {
		return RuntimeSettings{}, fmt.Errorf("config: negative earlyExitToleranceMps %g", r.EarlyExitToleranceMps)
	}
	if r.EarlyExitHoldS < 0 {
		return RuntimeSettings{}, fmt.Errorf("config: negative earlyExitHoldS %g", r.EarlyExitHoldS)
	}
	out.HeartbeatFile = r.HeartbeatFile
	if r.HeartbeatIntervalS < 0 {
		return RuntimeSettings{}, fmt.Errorf("config: negative heartbeatIntervalS %g", r.HeartbeatIntervalS)
	}
	out.HeartbeatInterval = time.Duration(r.HeartbeatIntervalS * float64(time.Second))
	out.MetricsAddr = r.MetricsAddr
	return out, nil
}

// RuntimeSettings is the validated campaign-runtime configuration.
type RuntimeSettings struct {
	Workers            int
	Shard              runner.Shard
	ResultsFile        string
	Retries            int
	RetryBackoff       time.Duration
	ExperimentTimeout  time.Duration
	MaxFailures        int
	QuarantineFile     string
	DisableCheckpoints bool
	DisableTrie        bool
	HeartbeatFile      string
	HeartbeatInterval  time.Duration
	MetricsAddr        string
}

// FabricConfig configures the distributed campaign fabric
// (internal/fabric): how a `comfase serve` coordinator leases the grid
// to `comfase work` processes. Command-line flags override these
// settings. The section rides inside the ordinary config file, which the
// coordinator serves verbatim to registering workers — so one file
// configures the whole fleet.
type FabricConfig struct {
	// Addr is the coordinator's HTTP listen address for `comfase serve`
	// ("127.0.0.1:0" picks a free port).
	Addr string `json:"addr,omitempty"`
	// LeaseSize is the number of contiguous grid points per worker lease
	// (0 = the fabric default of 16).
	LeaseSize int `json:"leaseSize,omitempty"`
	// LeaseTTLS is the lease time-to-live in seconds: a worker that does
	// not report within it is presumed dead and its range is re-leased
	// (0 = the fabric default of 15 s).
	LeaseTTLS float64 `json:"leaseTTLS,omitempty"`
	// MaxCoordinatorRetries bounds consecutive failed coordinator calls
	// on the worker side before it gives up (0 = the fabric default).
	MaxCoordinatorRetries int `json:"maxCoordinatorRetries,omitempty"`
	// RetryBaseMS is the base of the worker's capped jittered exponential
	// backoff in milliseconds (0 = the fabric default of 200 ms).
	RetryBaseMS int `json:"retryBaseMS,omitempty"`
	// Dir, when set, starts `comfase serve` in submit mode: campaigns
	// arrive over the /v1/campaigns API and every campaign's artifacts
	// live side by side in this directory.
	Dir string `json:"dir,omitempty"`
	// FairnessCap bounds how many chunks one campaign may hold leased
	// while other campaigns still have pending work (0 = the fabric
	// default of 4). Only meaningful in submit mode.
	FairnessCap int `json:"fairnessCap,omitempty"`
}

// Build validates the fabric settings.
func (f FabricConfig) Build() (FabricSettings, error) {
	var out FabricSettings
	out.Addr = f.Addr
	if f.LeaseSize < 0 {
		return FabricSettings{}, fmt.Errorf("config: negative fabric leaseSize %d", f.LeaseSize)
	}
	out.LeaseSize = f.LeaseSize
	if f.LeaseTTLS < 0 {
		return FabricSettings{}, fmt.Errorf("config: negative fabric leaseTTLS %g", f.LeaseTTLS)
	}
	out.LeaseTTL = time.Duration(f.LeaseTTLS * float64(time.Second))
	if f.MaxCoordinatorRetries < 0 {
		return FabricSettings{}, fmt.Errorf("config: negative fabric maxCoordinatorRetries %d", f.MaxCoordinatorRetries)
	}
	out.MaxCoordinatorRetries = f.MaxCoordinatorRetries
	if f.RetryBaseMS < 0 {
		return FabricSettings{}, fmt.Errorf("config: negative fabric retryBaseMS %d", f.RetryBaseMS)
	}
	out.RetryBase = time.Duration(f.RetryBaseMS) * time.Millisecond
	out.Dir = f.Dir
	if f.FairnessCap < 0 {
		return FabricSettings{}, fmt.Errorf("config: negative fabric fairnessCap %d", f.FairnessCap)
	}
	out.FairnessCap = f.FairnessCap
	return out, nil
}

// FabricSettings is the validated fabric configuration. Zero values mean
// "use the fabric package default".
type FabricSettings struct {
	Addr                  string
	LeaseSize             int
	LeaseTTL              time.Duration
	MaxCoordinatorRetries int
	RetryBase             time.Duration
	Dir                   string
	FairnessCap           int
}

// File is a complete experiment description.
type File struct {
	// Seed drives all randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Controller is "cacc", "acc" or "ploeg" (default cacc).
	Controller string         `json:"controller,omitempty"`
	Scenario   ScenarioConfig `json:"scenario,omitempty"`
	Comm       CommConfig     `json:"comm,omitempty"`
	Campaign   CampaignConfig `json:"campaign,omitempty"`
	// Matrix sweeps registered attacks over registered scenarios in one
	// run; mutually exclusive with Campaign and the top-level
	// scenario/controller sections.
	Matrix  *MatrixConfig `json:"matrix,omitempty"`
	Runtime RuntimeConfig `json:"runtime,omitempty"`
	// Fabric configures distributed execution with `comfase serve` and
	// `comfase work`; ignored by the single-process subcommands.
	Fabric FabricConfig `json:"fabric,omitempty"`
}

// Parsed is the fully built experiment configuration. Exactly one of
// Campaign (with Engine) or Cells is populated: a matrix file yields
// Cells and leaves Engine/Campaign zero.
type Parsed struct {
	Seed     uint64
	Engine   core.EngineConfig
	Campaign core.CampaignSetup
	Cells    []runner.MatrixCell
	Runtime  RuntimeSettings
	Fabric   FabricSettings
}

// Grid returns the campaign as runner cells: the matrix cells, or the
// single campaign wrapped as one unlabeled cell. matrix reports which of
// the two the file described, which selects the results schema (11
// columns with the scenario, or the 10-column single-campaign one).
// Callers set per-engine overrides (metrics, flags) on the returned
// cells.
func (p *Parsed) Grid() (cells []runner.MatrixCell, matrix bool) {
	if len(p.Cells) > 0 {
		return p.Cells, true
	}
	return []runner.MatrixCell{{Engine: p.Engine, Setup: p.Campaign}}, false
}

// ControllerFactory maps a controller name to a factory.
func ControllerFactory(name string) (scenario.ControllerFactory, error) {
	switch name {
	case "", "cacc":
		return func(int) platoon.Controller { return platoon.DefaultCACC() }, nil
	case "acc":
		return func(int) platoon.Controller { return platoon.DefaultACC() }, nil
	case "ploeg":
		return func(int) platoon.Controller { return platoon.DefaultPloeg() }, nil
	default:
		return nil, fmt.Errorf("config: unknown controller %q", name)
	}
}

// Parse reads and builds a config file. An empty document reproduces the
// paper's setup with the delay campaign left empty (fill Campaign to run
// one).
func Parse(r io.Reader) (*Parsed, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, errors.New("config: empty document")
		}
		return nil, fmt.Errorf("config: %w", err)
	}
	return BuildFile(f)
}

// BuildFile turns a decoded File into a Parsed configuration.
func BuildFile(f File) (*Parsed, error) {
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	fb, err := f.Fabric.Build()
	if err != nil {
		return nil, err
	}
	if f.Matrix != nil {
		cells, err := buildMatrix(f, seed)
		if err != nil {
			return nil, err
		}
		rt, err := f.Runtime.Build()
		if err != nil {
			return nil, err
		}
		return &Parsed{Seed: seed, Cells: cells, Runtime: rt, Fabric: fb}, nil
	}
	ts, err := f.Scenario.Build()
	if err != nil {
		return nil, err
	}
	cm, err := f.Comm.Build()
	if err != nil {
		return nil, err
	}
	factory, err := ControllerFactory(f.Controller)
	if err != nil {
		return nil, err
	}
	setup, err := f.Campaign.Build()
	if err != nil {
		return nil, err
	}
	rt, err := f.Runtime.Build()
	if err != nil {
		return nil, err
	}
	return &Parsed{
		Seed: seed,
		Engine: core.EngineConfig{
			Scenario:           ts,
			Comm:               cm,
			Controllers:        factory,
			Seed:               seed,
			CancelCheckEvents:  f.Runtime.CancelCheckEvents,
			Invariants:         f.Runtime.Invariants,
			EventBudget:        f.Runtime.EventBudget,
			EarlyExit:          f.Runtime.EarlyExit,
			EarlyExitTolerance: f.Runtime.EarlyExitToleranceMps,
			EarlyExitHold:      des.FromSeconds(f.Runtime.EarlyExitHoldS),
		},
		Campaign: setup,
		Runtime:  rt,
		Fabric:   fb,
	}, nil
}
