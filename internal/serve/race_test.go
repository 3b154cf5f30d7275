//go:build race

package serve

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so a pooled buffer's reuse, and with it an
// allocation count, varies from run to run.
const raceEnabled = true
