//go:build !race

package batch

// raceEnabled reports a -race build, where allocation pins do not hold.
const raceEnabled = false
