package runner

import (
	"strconv"

	"comfase/internal/obs"
)

// runnerMetrics bundles the campaign-runtime counters the Runner feeds.
// All fields are nil when metrics are off (Options.Metrics == nil) and
// every update is a no-op then; nothing in the runner branches on an
// enable flag. Updates happen on completion-granularity paths (one
// finished experiment, one sink flush) — never inside a simulation — so
// the instrumented and uninstrumented runs schedule identically.
type runnerMetrics struct {
	reg *obs.Registry
	// retries counts re-attempts after a failed experiment attempt
	// (attempt 1 of each grid point is not a retry).
	retries *obs.Counter
	// results counts classified results released to the result sinks;
	// quarantined counts persistent-failure records released to the
	// quarantine sink. Resumed grid points are emitted by a previous run
	// and count there, not here.
	results     *obs.Counter
	quarantined *obs.Counter
	// flushes counts sink Flush calls (result and quarantine sinks).
	flushes *obs.Counter
	// gridDone/gridTotal expose the release-frontier progress of the
	// current Run: done counts completed grid points (resumed included),
	// total is the selected grid's size.
	gridDone  *obs.Gauge
	gridTotal *obs.Gauge
}

func newRunnerMetrics(reg *obs.Registry) runnerMetrics {
	return runnerMetrics{
		reg:         reg,
		retries:     reg.Counter("runner.retries"),
		results:     reg.Counter("runner.results_emitted"),
		quarantined: reg.Counter("runner.quarantine_emitted"),
		flushes:     reg.Counter("runner.sink_flushes"),
		gridDone:    reg.Gauge("runner.grid_done"),
		gridTotal:   reg.Gauge("runner.grid_total"),
	}
}

// failure bumps the per-class persistent-failure counter
// (runner.failures.<class>). Classes are a small closed set
// (core.FailureClass), so the registry stays bounded.
func (m *runnerMetrics) failure(class string) {
	if m.reg == nil {
		return
	}
	m.reg.Counter("runner.failures." + class).Inc()
}

// worker returns the per-worker experiment counter
// (runner.worker.<w>.experiments). Callers cache it for the duration of
// a scheduling unit; with metrics off it is nil and increments no-op.
func (m *runnerMetrics) worker(w int) *obs.Counter {
	return m.reg.Counter("runner.worker." + strconv.Itoa(w) + ".experiments")
}
