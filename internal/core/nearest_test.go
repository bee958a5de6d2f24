package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpuid"
	"repro/internal/mpi"
)

// nearestSpecials are the values that stress the kernel's exactness
// argument: signed zeros, values whose squares overflow to +Inf,
// infinities (Inf-Inf is NaN) and NaN itself.
var nearestSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 2, 3,
	1e308, -1e308, math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// nearestKernels are scan's two kernels: the AVX2 block kernel, which
// runs only on a CPU with AVX2, and the Go chains, its reference.
var nearestKernels = []struct {
	name string
	avx2 bool
}{{"avx2", true}, {"go", false}}

// withKernel runs f with scan on one kernel and restores the CPU's
// choice after. It reports false, without running f, when this CPU
// cannot run the kernel.
func withKernel(avx2 bool, f func()) bool {
	if avx2 && !cpuid.AVX2() {
		return false
	}
	saved := useAVX2
	useAVX2 = avx2
	defer func() { useAVX2 = saved }()
	f()
	return true
}

// checkNearest pins Nearest, NearestFrom carried through every
// two-stripe cut of [0, k), and the partitioned search to
// argminDistance: same index, same distance bits, through each kernel
// this CPU runs. The partitioned search cuts the rows into 1..8 slices
// as the engines do (shareRange, empty slices included), takes each
// slice's NearestSlice candidate, and combines the candidates with
// mpi.MinPairLess in a left fold, in AllReduceMinPairs's binomial tree
// and, for power-of-two slice counts, in the CPE min-reduce's
// recursive doubling. NearestSliceDists over SqDist's distances must
// return each slice's candidate.
func checkNearest(t *testing.T, x, cents []float64, d int) {
	t.Helper()
	for _, kern := range nearestKernels {
		withKernel(kern.avx2, func() { checkNearestKernel(t, kern.name, x, cents, d) })
	}
}

// checkNearestKernel is checkNearest through the kernel scan runs now.
func checkNearestKernel(t *testing.T, kernel string, x, cents []float64, d int) {
	t.Helper()
	k := len(cents) / d
	wantJ, wantD := argminDistance(x, cents, d)
	same := func(what string, arg, j int, dist float64) {
		t.Helper()
		if j != wantJ || math.Float64bits(dist) != math.Float64bits(wantD) {
			t.Fatalf("%s kernel, k=%d d=%d %s %d: got (%d, %v), argminDistance (%d, %v)\nx=%v\ncents=%v",
				kernel, k, d, what, arg, j, dist, wantJ, wantD, x, cents)
		}
	}
	for seed := -1; seed <= k; seed++ {
		j, dist := Nearest(x, cents, d, seed)
		same("seed", seed, j, dist)
	}
	for cut := 0; cut <= k; cut++ {
		j, dist := NearestFrom(x, cents, d, 0, cut, -1, 0)
		j, dist = NearestFrom(x, cents, d, cut, k, j, dist)
		same("cut", cut, j, dist)
	}

	type pair struct {
		v float64
		i int64
	}
	less := func(a, b pair) bool { return mpi.MinPairLess(a.v, a.i, b.v, b.i) }
	for p := 1; p <= 8; p++ {
		cands := make([]pair, p)
		for r := range cands {
			lo, hi := shareRange(k, p, r)
			j, dist := NearestSlice(x, cents[lo*d:hi*d], d, lo, k)
			dists := make([]float64, hi-lo)
			for i := range dists {
				dists[i] = SqDist(x[:d], cents[(lo+i)*d:(lo+i+1)*d])
			}
			if tj, tdist := NearestSliceDists(dists, lo, k); tj != j || math.Float64bits(tdist) != math.Float64bits(dist) {
				t.Fatalf("%s kernel, k=%d d=%d slice %d/%d: NearestSliceDists (%d, %v), NearestSlice (%d, %v)\nx=%v\ncents=%v",
					kernel, k, d, r, p, tj, tdist, j, dist, x, cents)
			}
			cands[r] = pair{dist, int64(j)}
		}
		fold := cands[0]
		for _, c := range cands[1:] {
			if less(c, fold) {
				fold = c
			}
		}
		same("slices, left fold", p, int(fold.i), fold.v)
		tree := append([]pair(nil), cands...)
		for mask := 1; mask < p; mask <<= 1 {
			for r := 0; r+mask < p; r += 2 * mask {
				if less(tree[r+mask], tree[r]) {
					tree[r] = tree[r+mask]
				}
			}
		}
		same("slices, binomial tree", p, int(tree[0].i), tree[0].v)
		if p&(p-1) != 0 {
			continue
		}
		for step := 1; step < p; step *= 2 {
			next := make([]pair, p)
			for r := range next {
				next[r] = cands[r]
				if less(cands[r^step], cands[r]) {
					next[r] = cands[r^step]
				}
			}
			cands = next
		}
		for _, c := range cands {
			same("slices, recursive doubling", p, int(c.i), c.v)
		}
	}
}

// TestNearestMatchesArgminDistance covers the shapes the blocking and
// the abandon stride have edges at (k around multiples of 4, d around
// multiples of 8, k=1, d=1), duplicate centroids, and special values
// in the query, in centroid 0 and elsewhere.
func TestNearestMatchesArgminDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17} {
		for _, d := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 33} {
			for trial := 0; trial < 12; trial++ {
				cents := make([]float64, k*d)
				for i := range cents {
					cents[i] = float64(rng.Intn(5)) - 2 + rng.NormFloat64()*float64(trial%2)
				}
				if k > 2 {
					// Duplicate rows: exact ties between distinct indices.
					a, b := rng.Intn(k), rng.Intn(k)
					copy(cents[a*d:(a+1)*d], cents[b*d:(b+1)*d])
				}
				x := make([]float64, d)
				copy(x, cents[rng.Intn(k)*d:])
				if trial%3 == 0 {
					for u := range x {
						x[u] += rng.NormFloat64()
					}
				}
				switch trial {
				case 4: // query special
					x[rng.Intn(d)] = nearestSpecials[rng.Intn(len(nearestSpecials))]
				case 5: // centroid 0 special
					cents[rng.Intn(d)] = nearestSpecials[rng.Intn(len(nearestSpecials))]
				case 6, 7: // specials anywhere
					for n := rng.Intn(4); n >= 0; n-- {
						cents[rng.Intn(k*d)] = nearestSpecials[rng.Intn(len(nearestSpecials))]
					}
				case 8: // overflow: each x-c is 0 or -2e308, which rounds to -Inf
					for i := range cents {
						cents[i] = 1e308 * float64(1-2*(i%2))
					}
					for u := range x {
						x[u] = -1e308
					}
				}
				checkNearest(t, x, cents, d)
			}
		}
	}
}

// TestNearestNaNPlacement pins the three NaN cases argminDistance
// distinguishes: NaN in the query poisons every distance and centroid
// 0 wins; NaN in centroid 0 is kept, payload included; NaN elsewhere
// never wins.
func TestNearestNaNPlacement(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name  string
		x     []float64
		cents []float64
		want  int
	}{
		{"query", []float64{0, nan}, []float64{5, 5, 1, 1, 0, 0, 3, 3, 2, 2}, 0},
		{"centroid 0", []float64{0, 0}, []float64{nan, 5, 1, 1, 0, 0, 3, 3, 2, 2}, 0},
		{"centroid 0 last coordinate", []float64{0, 0}, []float64{9, nan, 1, 1, 0, 0, 3, 3, 2, 2}, 0},
		// Two NaN payloads meet in one sum (Inf-Inf makes the second):
		// the distance bits pin which operand the addition keeps.
		{"centroid 0 two payloads", []float64{0, math.Inf(1)},
			[]float64{math.Float64frombits(0x7ff8000000000abc), math.Inf(1), 1, 1, 0, 0}, 0},
		{"elsewhere", []float64{0, 0}, []float64{5, 5, nan, 1, 0, nan, 3, 3, 2, 2}, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j, _ := Nearest(c.x, c.cents, 2, 2)
			if j != c.want {
				t.Fatalf("Nearest = %d, want %d", j, c.want)
			}
			checkNearest(t, c.x, c.cents, 2)
		})
	}
}

// FuzzNearest drives Nearest, NearestFrom, NearestSlice and
// NearestSliceDists with arbitrary shapes, seeds, cuts and values
// against argminDistance. Each value takes one byte from a table of
// specials and small integers (for ties), or, after a 0xFF marker,
// eight raw bytes (any float64, NaN payloads included).
func FuzzNearest(f *testing.F) {
	f.Add(uint8(4), uint8(1), []byte{2, 3, 1, 0xFF, 0, 0, 0, 0, 0, 0, 0xF8, 0x7F, 5})
	f.Add(uint8(7), uint8(9), []byte{7, 8, 9, 10, 11, 12, 13, 1, 2, 3})
	f.Add(uint8(17), uint8(3), []byte{13, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, k, d uint8, data []byte) {
		kk, dd := int(k%19)+1, int(d%20)+1
		next := func() float64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			if b == 0xFF && len(data) >= 8 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
				return v
			}
			if int(b) < len(nearestSpecials) {
				return nearestSpecials[b]
			}
			return float64(int(b)%7 - 3)
		}
		x := make([]float64, dd)
		for u := range x {
			x[u] = next()
		}
		cents := make([]float64, kk*dd)
		for i := range cents {
			cents[i] = next()
		}
		checkNearest(t, x, cents, dd)
	})
}

// TestNearestAllocatesNothing holds every entry point to zero
// allocations on both kernels: scanBlocks' result array stays on the
// stack only while the assembly declaration says it does not escape.
func TestNearestAllocatesNothing(t *testing.T) {
	const k, d = 13, 17
	rng := rand.New(rand.NewSource(3))
	cents := make([]float64, k*d)
	for i := range cents {
		cents[i] = rng.NormFloat64()
	}
	x := cents[5*d : 6*d]
	calls := []struct {
		name string
		f    func()
	}{
		{"Nearest", func() { Nearest(x, cents, d, 5) }},
		{"NearestFrom", func() { NearestFrom(x, cents, d, 2, k, -1, 0) }},
		{"NearestSlice", func() { NearestSlice(x, cents[3*d:], d, 3, k) }},
	}
	for _, kern := range nearestKernels {
		withKernel(kern.avx2, func() {
			for _, c := range calls {
				if n := testing.AllocsPerRun(100, c.f); n != 0 {
					t.Errorf("%s kernel: %s allocates %v times per call", kern.name, c.name, n)
				}
			}
		})
	}
}
