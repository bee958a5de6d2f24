package dataset

import (
	"math"
	"testing"

	"repro/internal/cpuid"
)

// gridHash returns a hash whose unitFloat is m/2^53.
func gridHash(m uint64) uint64 { return m << 11 }

// hSqrt2Grid is math.Sqrt2/2 on unitFloat's grid: archLog's f1 of u is
// exactly its HSqrt2 at u = hSqrt2Grid/2^53.
const hSqrt2Grid = 0x16a09e667f3bcd

// gaussEdges are unitFloat grid points where boxMuller's branch-free
// arithmetic stands in for a branch of the scalar path: in u, the
// 1e-300 clamp (m = 0), the smallest u above it, archLog's f1 select
// at HSqrt2 and one step either side, and the largest u; in v, every
// octant boundary k/8 and one step either side, up to v = 1 - 2^-53.
func gaussEdges() (us, vs []uint64) {
	us = []uint64{0, 1, hSqrt2Grid - 1, hSqrt2Grid, hSqrt2Grid + 1, 1<<53 - 1}
	for k := uint64(0); k < 8; k++ {
		if k > 0 {
			vs = append(vs, k<<50-1)
		}
		vs = append(vs, k<<50, k<<50+1)
	}
	vs = append(vs, 1<<53-1)
	for i := range us {
		us[i] = gridHash(us[i])
	}
	for i := range vs {
		vs[i] = gridHash(vs[i])
	}
	return us, vs
}

// checkLanes runs four hash pairs through boxMuller's four lanes and
// holds each to gauss bit for bit.
func checkLanes(t testing.TB, a, b [4]uint64) {
	t.Helper()
	var u, v [4]float64
	for l := range u {
		u[l], v[l] = gaussArgs(a[l], b[l])
	}
	boxMuller(&u[0], &v[0], len(u))
	for l, got := range u {
		if want := gauss(a[l], b[l]); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("lane %d, hashes %#x, %#x: boxMuller %v (%#x), gauss %v (%#x)",
				l, a[l], b[l], got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestBoxMullerMatchesGauss holds the kernel to gauss bit for bit on
// 2^20 hashed pairs, on every pair of gaussEdges, and on the 512 grid
// points either side of each edge, where the octant of cos's reduction
// or archLog's select turns over.
func TestBoxMullerMatchesGauss(t *testing.T) {
	if !cpuid.AVX2() {
		t.Skip("this CPU has no AVX2")
	}
	var as, bs []uint64
	for i := uint64(0); i < 1<<20; i++ {
		h := splitmix64(i)
		as, bs = append(as, h), append(bs, splitmix64(h))
	}
	us, vs := gaussEdges()
	for _, a := range us {
		for _, b := range vs {
			as, bs = append(as, a), append(bs, b)
		}
	}
	const mid = 0x1234_5678_9abc_def0
	for _, edge := range append(us, vs...) {
		for i := uint64(0); i <= 1024; i++ {
			m := edge>>11 + i - 512
			if m >= 1<<53 {
				continue // below 0 or past 1 - 2^-53
			}
			as, bs = append(as, gridHash(m), mid), append(bs, mid, gridHash(m))
		}
	}
	for len(as)%4 != 0 {
		as, bs = append(as, mid), append(bs, mid)
	}
	for i := 0; i < len(as); i += 4 {
		checkLanes(t, [4]uint64(as[i:i+4]), [4]uint64(bs[i:i+4]))
	}
}

// FuzzGauss holds boxMuller's four lanes to gauss on fuzzer-chosen hash
// pairs, seeded with every pair of gaussEdges.
func FuzzGauss(f *testing.F) {
	us, vs := gaussEdges()
	var as, bs []uint64
	for _, a := range us {
		for _, b := range vs {
			as, bs = append(as, a), append(bs, b)
		}
	}
	for i := 0; i+4 <= len(as); i += 4 {
		f.Add(as[i], bs[i], as[i+1], bs[i+1], as[i+2], bs[i+2], as[i+3], bs[i+3])
	}
	f.Fuzz(func(t *testing.T, a0, b0, a1, b1, a2, b2, a3, b3 uint64) {
		if !cpuid.AVX2() {
			t.Skip("this CPU has no AVX2")
		}
		checkLanes(t, [4]uint64{a0, a1, a2, a3}, [4]uint64{b0, b1, b2, b3})
	})
}
