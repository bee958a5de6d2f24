package mpi

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/machine"
)

// collectiveShapes are the worlds the collective benchmarks run on:
// des4096 is the Figure 6b shape (4,096 ranks) on the DES driver,
// goroutine16 a 16-rank world on the goroutine driver.
var collectiveShapes = []struct {
	name   string
	size   int
	driver Driver
}{
	{"des4096", 4096, DriverSched},
	{"goroutine16", 16, DriverGoroutine},
}

// benchCollective times one Run of op per iteration on each shape,
// with B/op beside ns/op. bufs hands every rank its buffers, made once
// outside the timed loop.
func benchCollective(b *testing.B, bufs func(size int) func(c *Comm) error) {
	for _, sh := range collectiveShapes {
		b.Run(sh.name, func(b *testing.B) {
			w := MustWorld(machine.MustSpec(sh.size/4), nil, sh.size)
			w.SetDriver(sh.driver)
			op := bufs(sh.size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Run(op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sumOp is an AllReduceSum of 4,096 floats per rank, the Update-step
// shape (Algorithm 1 line 14).
func sumOp(size int) func(c *Comm) error {
	bufs := make([][]float64, size)
	for r := range bufs {
		bufs[r] = make([]float64, 4096)
	}
	return func(c *Comm) error { return c.AllReduceSum(bufs[c.Rank()], nil) }
}

// rowsOp is an AllReduceRows of 16 rows of 256, the shape of a des-4k
// Update step's stripe sums, in which one rank in 64 touched one row:
// the Update step's sparsity.
func rowsOp(size int) func(c *Comm) error {
	parts := make([]*RowSums, size)
	x := make([]float64, 256)
	for r := range parts {
		parts[r] = NewRowSums(16, 256)
		if r%64 == 0 {
			parts[r].Add(r/64%16, x)
		}
	}
	return func(c *Comm) error {
		_, err := c.AllReduceRows(parts[c.Rank()])
		return err
	}
}

// minPairsOp is an AllReduceMinPairs of 256 pairs per rank, the
// assignment min-reduce of Algorithms 2 and 3.
func minPairsOp(size int) func(c *Comm) error {
	vals, idxs := make([][]float64, size), make([][]int64, size)
	for r := range vals {
		vals[r], idxs[r] = make([]float64, 256), make([]int64, 256)
	}
	return func(c *Comm) error {
		v, ix := vals[c.Rank()], idxs[c.Rank()]
		for j := range v {
			v[j] = float64((c.Rank()*31 + j) % 97)
			ix[j] = int64(c.Rank())
		}
		return c.AllReduceMinPairs(v, ix)
	}
}

func barrierOp(int) func(c *Comm) error { return (*Comm).Barrier }

// splitOp is Level 3's two splits, by CG group (Rank()/m') and by
// position across groups (Rank()%m'), at m' = 128 for 4,096 ranks and
// m' = 4 for 16.
func splitOp(size int) func(c *Comm) error {
	mPrime := max(size/32, 4)
	return func(c *Comm) error {
		if _, err := c.Split(c.Rank()/mPrime, c.Rank()); err != nil {
			return err
		}
		_, err := c.Split(c.Rank()%mPrime, c.Rank())
		return err
	}
}

// BenchmarkAllReduceSum measures the allreduce of the Update step.
func BenchmarkAllReduceSum(b *testing.B) { benchCollective(b, sumOp) }

// BenchmarkAllReduceRows measures the row-sparse allreduce of the
// Update step.
func BenchmarkAllReduceRows(b *testing.B) { benchCollective(b, rowsOp) }

// BenchmarkAllReduceMinPairs measures the assignment min-reduce.
func BenchmarkAllReduceMinPairs(b *testing.B) { benchCollective(b, minPairsOp) }

// BenchmarkBarrier measures the barrier.
func BenchmarkBarrier(b *testing.B) { benchCollective(b, barrierOp) }

// BenchmarkSplit measures the host cost of Level 3's two splits.
func BenchmarkSplit(b *testing.B) { benchCollective(b, splitOp) }

// runAlloc returns the bytes one DES Run of op allocates at size ranks
// beyond an empty Run. Each measured Run starts after a GC: how much a
// 4,096-rank Run allocates otherwise depends on when the collector
// runs during it.
func runAlloc(t *testing.T, size int, mk func(size int) func(c *Comm) error) uint64 {
	t.Helper()
	w := MustWorld(machine.MustSpec(size/4), nil, size)
	w.SetDriver(DriverSched)
	op := mk(size)
	measure := func(fn func(c *Comm) error) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := w.Run(fn)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// The first Run of a world allocates its epoch state; after it, the
	// least of three runs filters out what other goroutines allocate
	// meanwhile.
	measure(op)
	full, empty := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		full = min(full, measure(op))
		empty = min(empty, measure(func(*Comm) error { return nil }))
	}
	return full - min(full, empty)
}

// TestCollectiveHostCost is the host-cost guard of the rendezvous: one
// DES collective over 4,096 ranks must allocate, beyond the ranks' own
// buffers and an empty Run, less than its bound, and four times the
// ranks must allocate less than five times the bytes. The bounds leave
// room for a few words per member and call (about 0.55 MB for each of
// the first three, 2 MB for Level 3's two splits) but not for a packet
// per protocol edge or a payload copy per rank (138 MB for a
// 4,096-float AllReduceSum, 7.7 MB for a Barrier, 3.5 MB for the two
// splits). AllReduceRows shares one sum of the touched rows: a dense
// 4,112-element result per rank would be 135 MB.
func TestCollectiveHostCost(t *testing.T) {
	if testing.Short() {
		t.Skip("4,096-rank worlds in -short mode")
	}
	for _, tc := range []struct {
		name  string
		op    func(size int) func(c *Comm) error
		bound uint64 // bytes at 4,096 ranks
	}{
		{"AllReduceSum", sumOp, 1 << 20},
		{"AllReduceRows", rowsOp, 1 << 20},
		{"AllReduceMinPairs", minPairsOp, 1 << 20},
		{"Barrier", barrierOp, 1 << 20},
		{"Split", splitOp, 5 << 19},
	} {
		small, large := runAlloc(t, 1024, tc.op), runAlloc(t, 4096, tc.op)
		t.Logf("%s allocates %d B at 1,024 ranks, %d B at 4,096", tc.name, small, large)
		if large >= tc.bound {
			t.Errorf("%s allocates %d B at 4,096 ranks, want < %d", tc.name, large, tc.bound)
		}
		if large >= 5*small {
			t.Errorf("%s: 4x the ranks allocates %.1fx the bytes (%d -> %d), want < 5x", tc.name, float64(large)/float64(small), small, large)
		}
	}
}

// TestGoroutineDriverHostCost is the host-cost guard of the goroutine
// driver: the first Barrier Run of a fresh 1,024-rank world, epoch
// state included, must allocate less than 4 MiB, and four times the
// ranks less than five times the bytes. The bounds leave room for a
// goroutine and a few words of wait state per rank (the DES driver's
// Run allocates about 0.9 MB at this size) but not for a mailbox
// buffer per rank that grows with the world: per-rank channels of
// 4·size+16 packets cost 345 MB at 1,024 ranks and 23 MB at 256.
func TestGoroutineDriverHostCost(t *testing.T) {
	alloc := func(size int) uint64 {
		w := MustWorld(machine.MustSpec(size/4), nil, size)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := w.Run(barrierOp(size))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(256), alloc(1024)
	t.Logf("a Barrier Run allocates %d B at 256 ranks, %d B at 1,024", small, large)
	if large >= 4<<20 {
		t.Errorf("a Barrier Run allocates %d B at 1,024 ranks, want < %d", large, 4<<20)
	}
	if large >= 5*small {
		t.Errorf("4x the ranks allocates %.1fx the bytes (%d -> %d), want < 5x", float64(large)/float64(small), small, large)
	}
}
