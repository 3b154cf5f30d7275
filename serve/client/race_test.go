//go:build race

package client

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so how often a pooled body is reused, and the
// bytes an op allocates with it, vary from run to run.
const raceEnabled = true
