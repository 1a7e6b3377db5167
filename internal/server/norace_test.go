//go:build !race

package server

// raceEnabled reports a -race build, where allocation pins do not hold.
const raceEnabled = false
