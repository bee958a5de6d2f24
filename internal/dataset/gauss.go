package dataset

import (
	"math"

	"repro/internal/cpuid"
)

// gaussArgs maps two hashes to Box–Muller's uniforms: u in
// [1e-300, 1), so that its logarithm is finite, and v in [0, 1).
func gaussArgs(a, b uint64) (u, v float64) {
	u = unitFloat(a)
	if u < 1e-300 {
		u = 1e-300
	}
	return u, unitFloat(b)
}

// gauss maps two hashes to a standard normal deviate (Box–Muller). It
// is the reference for boxMuller, the AVX2 kernel that computes the
// same bits four at a time (gauss_amd64.s).
func gauss(a, b uint64) float64 {
	u, v := gaussArgs(a, b)
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// useAVX2 sends deviates' four-coordinate blocks through boxMuller. It
// is set once, from the CPU's features, and is false off amd64; tests
// clear it to run the generators on gauss alone.
var useAVX2 = cpuid.AVX2()

// gaussChunk is how many coordinates deviates hands boxMuller per call.
// Their v values wait in a stack array of this length, 256 bytes on
// every goroutine that generates samples (up to 4,096 ranks in a
// Figure 6b run), so it is kept small; a call costs a few nanoseconds
// against 15–20 per coordinate.
const gaussChunk = 32

// deviatesGo writes the deviate of every coordinate u of a row into
// buf[u]: gauss(h, splitmix64(h)) with h = splitmix64(base+u). Every
// generator draws its noise this way; deviates runs it, or the same
// loop with the arithmetic in boxMuller, and both give the same bits.
func deviatesGo(base uint64, buf []float64) {
	for u := range buf {
		h := splitmix64(base + uint64(u))
		buf[u] = gauss(h, splitmix64(h))
	}
}
