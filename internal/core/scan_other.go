//go:build !amd64

package core

// hasAVX2 is false off amd64: scan_amd64.s is the only assembly kernel.
func hasAVX2() bool { return false }

// scan is scanGo wherever there is no assembly kernel.
func scan(x, cents []float64, d, lo, hi, best int, bestDist float64) (int, float64) {
	return scanGo(x, cents, d, lo, hi, best, bestDist)
}
