//go:build race

package runner_test

// raceEnabled skips the reference twin under the race detector, which
// runs it about ten times slower; `make ref-twin` runs it without.
const raceEnabled = true
