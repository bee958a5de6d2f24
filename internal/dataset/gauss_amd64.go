package dataset

// boxMuller is gauss's arithmetic in AVX2 (gauss_amd64.s), with one
// coordinate per lane of a YMM register. For each t < n, n a multiple
// of 4, it overwrites u[t] with math.Sqrt(-2*math.Log(u[t])) *
// math.Cos(2*math.Pi*v[t]), where gaussArgs made u[t] and v[t]. Each
// lane runs the scalar path's operations in their order, with no
// fused multiply-add, so each result has gauss's bits.
//
//go:noescape
func boxMuller(u, v *float64, n int)

// deviates is deviatesGo, with the arithmetic of each block of four
// coordinates in boxMuller when the CPU has AVX2 (useAVX2); the last
// d mod 4 coordinates run in deviatesGo. The race detector does not
// see boxMuller's loads and stores, but the Go loop's stores to the
// same row come just before them.
func deviates(base uint64, buf []float64) {
	u := 0
	if useAVX2 {
		var v [gaussChunk]float64
		for len(buf)-u >= 4 {
			row := buf[u : u+min(len(v), (len(buf)-u)&^3)]
			for t := range row {
				h := splitmix64(base + uint64(u+t))
				row[t], v[t] = gaussArgs(h, splitmix64(h))
			}
			boxMuller(&row[0], &v[0], len(row))
			u += len(row)
		}
	}
	deviatesGo(base+uint64(u), buf[u:])
}
