package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/machine"
)

// BenchmarkArgminDistance measures the reference distance loop, the
// one sequential Lloyd keeps, at the Level-1 working-set shape (all
// centroids resident).
func BenchmarkArgminDistance(b *testing.B) {
	const k, d = 64, 128
	cents := make([]float64, k*d)
	x := make([]float64, d)
	for i := range cents {
		cents[i] = float64(i % 17)
	}
	for i := range x {
		x[i] = float64(i % 13)
	}
	b.SetBytes(int64(k * d * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		argminDistance(x, cents, d)
	}
}

// nearestSink keeps the benchmarked kernel calls alive.
var nearestSink int

// nearestBench is a Gaussian mixture with k components and the
// centroids after three Lloyd iterations; seeds are the assignments of
// the last iteration, which is what the engines seed the kernel with.
func nearestBench(b *testing.B, n, d, k int) (m *dataset.Matrix, cents []float64, seeds []int) {
	b.Helper()
	g, err := dataset.NewGaussianMixture("bench", n, d, k, 0.25, 2.0, 1)
	if err != nil {
		b.Fatal(err)
	}
	if m, err = dataset.Materialize(g); err != nil {
		b.Fatal(err)
	}
	res, err := Lloyd(m, k, 3, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	return m, res.Centroids, res.Assign
}

// BenchmarkNearest measures Nearest per query at the benchmark
// workloads' kernel shapes: l1-kernel's Level-1 assign (k=64, d=32,
// seeded with the previous assignment), serve-read's snapshot (k=1,024,
// d=64, the candidate carried across 4 shards) and des-4k's Level-3
// stripe (k=16 of 2,000 centroids, d=256, unseeded). Each shape runs
// on both scan kernels, avx2 and go.
func BenchmarkNearest(b *testing.B) {
	b.Run("k64_d32_seeded", func(b *testing.B) {
		const k, d = 64, 32
		m, cents, seeds := nearestBench(b, 4096, d, k)
		benchKernels(b, func(b *testing.B) {
			b.SetBytes(int64(k * d * 8))
			for i := 0; i < b.N; i++ {
				s := i % m.N()
				nearestSink, _ = Nearest(m.Row(s), cents, d, seeds[s])
			}
		})
	})
	b.Run("k1024_d64_4shards", func(b *testing.B) {
		const k, d, shards = 1024, 64, 4
		m, cents, _ := nearestBench(b, 4096, d, k)
		benchKernels(b, func(b *testing.B) {
			b.SetBytes(int64(k * d * 8))
			for i := 0; i < b.N; i++ {
				x := m.Row(i % m.N())
				best, dist := -1, 0.0
				for sh := 0; sh < shards; sh++ {
					lo, hi := shareRange(k, shards, sh)
					best, dist = NearestFrom(x, cents, d, lo, hi, best, dist)
				}
				nearestSink = best
			}
		})
	})
	b.Run("k16_d256", func(b *testing.B) {
		const k, d = 16, 256
		m, cents, _ := nearestBench(b, 2048, d, k)
		benchKernels(b, func(b *testing.B) {
			b.SetBytes(int64(k * d * 8))
			for i := 0; i < b.N; i++ {
				nearestSink, _ = Nearest(m.Row(i%m.N()), cents, d, -1)
			}
		})
	})
}

// benchKernels runs bench once per scan kernel, as sub-benchmarks
// named after the kernel; avx2 is skipped on a CPU without AVX2.
func benchKernels(b *testing.B, bench func(b *testing.B)) {
	for _, kern := range nearestKernels {
		b.Run(kern.name, func(b *testing.B) {
			if !withKernel(kern.avx2, func() { bench(b) }) {
				b.Skip("this CPU has no AVX2")
			}
		})
	}
}

// BenchmarkLloydIteration measures a full sequential baseline
// iteration on a small mixture.
func BenchmarkLloydIteration(b *testing.B) {
	g, err := dataset.NewGaussianMixture("bench", 2048, 32, 8, 0.2, 2.0, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Lloyd(g, 8, 1, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLevel3Iteration measures one functional Level-3 iteration
// on the simulated machine (8 CGs, dimension-striped).
func BenchmarkLevel3Iteration(b *testing.B) {
	g, err := dataset.NewGaussianMixture("bench", 2048, 256, 8, 0.2, 2.0, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec := machine.MustSpec(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Spec: spec, Level: Level3, K: 8, MaxIters: 1, Seed: 1}, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLevel3SharedGroup measures one DES iteration of two m'=8 CG
// groups on a lazily generated d=256 mixture: des-4k's per-group shape
// in miniature, where each group's eight ranks read every sample of the
// group's share.
func BenchmarkLevel3SharedGroup(b *testing.B) {
	g, err := dataset.NewGaussianMixture("bench", 2048, 256, 16, 0.25, 2.0, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec := machine.MustSpec(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{Spec: spec, Level: Level3, K: 128, MPrimeGroup: 8, MaxIters: 1, Seed: 1, Sched: true}
		if _, err := Run(cfg, g); err != nil {
			b.Fatal(err)
		}
	}
}
