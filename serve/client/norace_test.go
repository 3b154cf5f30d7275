//go:build !race

package client

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
