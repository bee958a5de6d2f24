package mpi

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/trace"
)

func TestRingAllReduceCorrectness(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 7, 8, 13} {
		for _, elems := range []int{0, 1, 5, 64, 1000} {
			w := world(t, 4, size)
			err := w.Run(func(c *Comm) error {
				data := make([]float64, elems)
				ints := make([]int64, elems/2)
				for j := range data {
					data[j] = float64((c.Rank() + 1) * (j + 1)) // rank-dependent
				}
				for j := range ints {
					ints[j] = int64(c.Rank() + j)
				}
				if err := c.AllReduceSumRing(data, ints); err != nil {
					return err
				}
				for j := range data {
					want := 0.0
					for r := 0; r < size; r++ {
						want += float64((r + 1) * (j + 1))
					}
					if data[j] != want {
						return fmt.Errorf("rank %d elem %d = %g, want %g", c.Rank(), j, data[j], want)
					}
				}
				for j := range ints {
					want := int64(0)
					for r := 0; r < size; r++ {
						want += int64(r + j)
					}
					if ints[j] != want {
						return fmt.Errorf("rank %d int %d = %d, want %d", c.Rank(), j, ints[j], want)
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("size=%d elems=%d: %v", size, elems, err)
			}
		}
	}
}

func TestRingAllReduceIdenticalEverywhere(t *testing.T) {
	const size = 6
	const elems = 97
	w := world(t, 2, size)
	results := make([][]float64, size)
	err := w.Run(func(c *Comm) error {
		data := make([]float64, elems)
		for j := range data {
			data[j] = 1.0 / float64((c.Rank()+2)*(j+3))
		}
		if err := c.AllReduceSumRing(data, nil); err != nil {
			return err
		}
		results[c.Rank()] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < size; r++ {
		for j := range results[0] {
			if results[r][j] != results[0][j] {
				t.Fatalf("rank %d elem %d differs bitwise from rank 0", r, j)
			}
		}
	}
}

func TestRingFasterThanBinomialForLargePayloads(t *testing.T) {
	// The bandwidth-optimal property in virtual time: for a large
	// payload over many ranks, the ring allreduce completes earlier on
	// the simulated network.
	const size = 16
	const elems = 1 << 18
	timeOf := func(ring bool) float64 {
		w := world(t, 4, size)
		err := w.Run(func(c *Comm) error {
			data := make([]float64, elems)
			if ring {
				return c.AllReduceSumRing(data, nil)
			}
			return c.AllReduceSum(data, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.MaxTime()
	}
	ringT := timeOf(true)
	binT := timeOf(false)
	if ringT >= binT {
		t.Errorf("ring (%g s) not faster than binomial (%g s) at %d elems x %d ranks",
			ringT, binT, elems, size)
	}
}

// TestAllReduceRowsSelects: AllReduceRows charges the binomial
// reduce+broadcast below ringThresholdElems dense elements and the ring
// at or above it, except on two ranks, and returns the right sum
// either way: its clocks and traffic equal the dense call's.
func TestAllReduceRowsSelects(t *testing.T) {
	for _, tc := range []struct {
		rows, width, size int
		ring              bool
	}{
		{10, 4, 4, false},
		{ringThresholdElems/64 - 1, 63, 4, false},
		{ringThresholdElems / 64, 63, 4, true},
		{ringThresholdElems / 64, 63, 2, false},
	} {
		run := func(rows bool) (float64, int64) {
			stats := trace.NewStats()
			w := MustWorld(machine.MustSpec(2), stats, tc.size)
			err := w.Run(func(c *Comm) error {
				if !rows {
					data := make([]float64, tc.rows*tc.width)
					ints := make([]int64, tc.rows)
					if tc.ring {
						return c.AllReduceSumRing(data, ints)
					}
					return c.AllReduceSum(data, ints)
				}
				part := NewRowSums(tc.rows, tc.width)
				x := make([]float64, tc.width)
				for u := range x {
					x[u] = float64(c.Rank() + 1)
				}
				part.Add(tc.rows-1, x)
				sum, err := c.AllReduceRows(part)
				if err != nil {
					return err
				}
				got, cnt := sum.Row(tc.rows - 1)
				want := float64(tc.size * (tc.size + 1) / 2)
				if len(sum.present) != 1 || cnt != int64(tc.size) || got[0] != want || got[tc.width-1] != want {
					return fmt.Errorf("row sum %v (count %d), want %g (count %d)", got[:1], cnt, want, tc.size)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%+v: %v", tc, err)
			}
			return w.MaxTime(), stats.Snapshot().NetMessages
		}
		rt, rm := run(true)
		dt, dm := run(false)
		if rt != dt || rm != dm {
			t.Errorf("%+v: AllReduceRows took %g s and %d messages, the dense call %g s and %d", tc, rt, rm, dt, dm)
		}
	}
}

func TestSegment(t *testing.T) {
	// Segments cover [0,n) exactly for any p, and segmentOf inverts
	// them.
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)
		p := int(pRaw)%16 + 1
		total := 0
		prevHi := 0
		for s := 0; s < p; s++ {
			lo, hi := segment(n, p, s)
			if lo != prevHi || hi < lo {
				return false
			}
			for e := lo; e < hi; e++ {
				if segmentOf(n, p, e) != s {
					return false
				}
			}
			total += hi - lo
			prevHi = hi
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMod(t *testing.T) {
	for _, c := range []struct{ a, p, want int }{{-1, 5, 4}, {0, 5, 0}, {7, 5, 2}, {-6, 5, 4}} {
		if got := mod(c.a, c.p); got != c.want {
			t.Errorf("mod(%d,%d) = %d, want %d", c.a, c.p, got, c.want)
		}
	}
}

func BenchmarkRingAllReduce(b *testing.B) {
	w := MustWorld(machine.MustSpec(4), nil, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(func(c *Comm) error {
			return c.AllReduceSumRing(make([]float64, 4096), nil)
		}); err != nil {
			b.Fatal(err)
		}
	}
}
