package mpi

import (
	"testing"

	"repro/internal/machine"
)

// BenchmarkAllReduceSum measures the host cost of the functional
// AllReduce across 16 ranks, the dominant collective of the Update
// step (Algorithm 1 line 14).
func BenchmarkAllReduceSum(b *testing.B) {
	w := MustWorld(machine.MustSpec(4), nil, 16)
	data := make([]float64, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(func(c *Comm) error {
			buf := make([]float64, len(data))
			copy(buf, data)
			return c.AllReduceSum(buf, nil)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllReduceMinPairs measures the assignment min-reduce of
// Algorithms 2 and 3.
func BenchmarkAllReduceMinPairs(b *testing.B) {
	w := MustWorld(machine.MustSpec(4), nil, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(func(c *Comm) error {
			vals := make([]float64, 256)
			idxs := make([]int64, 256)
			for j := range vals {
				vals[j] = float64((c.Rank()*31 + j) % 97)
				idxs[j] = int64(c.Rank())
			}
			return c.AllReduceMinPairs(vals, idxs)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplit measures the host cost of Level 3's two splits, by CG
// group (Rank()/m') and by position across groups (Rank()%m'), with
// B/op beside ns/op: des4096 is the Figure 6b shape (4,096 ranks,
// m'=128) on the DES driver, goroutine16 a 16-rank world (m'=4) on the
// goroutine driver.
func BenchmarkSplit(b *testing.B) {
	for _, bc := range []struct {
		name         string
		size, mPrime int
		driver       Driver
	}{
		{"des4096", 4096, 128, DriverSched},
		{"goroutine16", 16, 4, DriverGoroutine},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := MustWorld(machine.MustSpec(bc.size/4), nil, bc.size)
			w.SetDriver(bc.driver)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Run(func(c *Comm) error {
					if _, err := c.Split(c.Rank()/bc.mPrime, c.Rank()); err != nil {
						return err
					}
					_, err := c.Split(c.Rank()%bc.mPrime, c.Rank())
					return err
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBarrier measures the dissemination barrier.
func BenchmarkBarrier(b *testing.B) {
	w := MustWorld(machine.MustSpec(4), nil, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(func(c *Comm) error { return c.Barrier() }); err != nil {
			b.Fatal(err)
		}
	}
}
