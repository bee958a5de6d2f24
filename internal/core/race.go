//go:build race

package core

import (
	"runtime"
	"unsafe"
)

// raceRead reports a read of s to the race detector, which does not
// see the loads of assembly code.
func raceRead(s []float64) {
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(s)), len(s)*8)
}
