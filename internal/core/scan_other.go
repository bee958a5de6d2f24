//go:build !amd64

package core

// scan is scanGo wherever there is no assembly kernel.
func scan(x, cents []float64, d, lo, hi, best int, bestDist float64) (int, float64) {
	return scanGo(x, cents, d, lo, hi, best, bestDist)
}
