//go:build !race

package core

// raceRead reports a read of s to the race detector; without -race
// there is none.
func raceRead([]float64) {}
