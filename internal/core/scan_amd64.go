package core

// scanBlocks is scanGo's block loop in AVX2 (scan_amd64.s), with one
// row per lane of a YMM register. c points at the first of n ≥ 1 rows
// of width d. It visits the rows four at a time, a block past row n-1
// repeating that row, and returns the offset of the first block whose
// four distances are not all above bestDist at any of scanGo's abandon
// checks, with the distances in sums; or a value ≥ n when every block
// is abandoned. Each lane subtracts, squares and adds in coordinate
// order with no fused multiply-add, so each distance has scanGo's bits.
//
//go:noescape
func scanBlocks(x, c *float64, d, n int, bestDist float64, sums *[4]float64) int

// scan is scanGo, with the block loop in scanBlocks when the CPU has
// AVX2 (useAVX2). Each block that scanBlocks does not abandon comes
// back here and is compared by closer, row by row, as scanGo does.
func scan(x, cents []float64, d, lo, hi, best int, bestDist float64) (int, float64) {
	if !useAVX2 || lo >= hi {
		return scanGo(x, cents, d, lo, hi, best, bestDist)
	}
	x = x[:d]
	rows := cents[lo*d : hi*d]
	raceRead(x)
	raceRead(rows)
	var s [4]float64
	//swlint:hot nearest-centroid kernel: runs once per sample per iteration
	for j := lo; j < hi; j += 4 {
		j += scanBlocks(&x[0], &rows[(j-lo)*d], d, hi-j, bestDist, &s)
		if j >= hi {
			break
		}
		j1, j2, j3 := min(j+1, hi-1), min(j+2, hi-1), min(j+3, hi-1)
		if closer(s[0], j, bestDist, best) {
			best, bestDist = j, s[0]
		}
		if closer(s[1], j1, bestDist, best) {
			best, bestDist = j1, s[1]
		}
		if closer(s[2], j2, bestDist, best) {
			best, bestDist = j2, s[2]
		}
		if closer(s[3], j3, bestDist, best) {
			best, bestDist = j3, s[3]
		}
	}
	return best, bestDist
}
