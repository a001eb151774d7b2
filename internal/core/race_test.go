//go:build race

package core

// raceEnabled trims the longest oracles under the race detector, which
// runs them about ten times slower.
const raceEnabled = true
