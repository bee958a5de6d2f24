//go:build !amd64

package dataset

// deviates is deviatesGo wherever there is no assembly kernel.
func deviates(base uint64, buf []float64) { deviatesGo(base, buf) }
