package mpi

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/trace"
)

func world(t *testing.T, nodes, size int) *World {
	t.Helper()
	w, err := NewWorld(machine.MustSpec(nodes), trace.NewStats(), size)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldValidation(t *testing.T) {
	spec := machine.MustSpec(1)
	if _, err := NewWorld(spec, nil, 0); err == nil {
		t.Error("size 0: want error")
	}
	if _, err := NewWorld(spec, nil, 5); err == nil {
		t.Error("size beyond CG count: want error")
	}
	bad := machine.MustSpec(1)
	bad.Nodes = -1
	if _, err := NewWorld(bad, nil, 1); err == nil {
		t.Error("invalid spec: want error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustWorld did not panic")
		}
	}()
	MustWorld(spec, nil, 99)
}

// TestCommCG: rank g runs on CG g, whichever communicator asks.
func TestCommCG(t *testing.T) {
	w := world(t, 2, 8)
	err := w.Run(func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, -c.Rank())
		if err != nil {
			return err
		}
		if c.CG() != c.Rank() || sub.CG() != c.Rank() {
			return fmt.Errorf("rank %d: CG %d, sub-communicator CG %d", c.Rank(), c.CG(), sub.CG())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRanks(t *testing.T) {
	w := world(t, 2, 8)
	var mu sync.Mutex
	seen := map[int]bool{}
	err := w.Run(func(c *Comm) error {
		mu.Lock()
		seen[c.Rank()] = true
		mu.Unlock()
		if c.Size() != 8 {
			return fmt.Errorf("size %d", c.Size())
		}
		if c.Global() != c.Rank() {
			return fmt.Errorf("global %d != rank %d in world comm", c.Global(), c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 8 {
		t.Errorf("ran %d ranks, want 8", len(seen))
	}
}

func TestRunPropagatesError(t *testing.T) {
	w := world(t, 1, 4)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("want error")
	}
}

func TestSendRecv(t *testing.T) {
	w := world(t, 1, 2)
	err := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 0:
			return c.Send(1, 7, []float64{3.14}, []int64{42})
		case 1:
			d, i, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if len(d) != 1 || d[0] != 3.14 || len(i) != 1 || i[0] != 42 {
				return fmt.Errorf("payload %v %v", d, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendValidation(t *testing.T) {
	w := world(t, 1, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Send(5, 0, nil, nil); err == nil {
			return fmt.Errorf("out-of-range dst accepted")
		}
		if err := c.Send(0, 0, nil, nil); err == nil {
			return fmt.Errorf("self send accepted")
		}
		if err := c.Send(1, -1, nil, nil); err == nil {
			return fmt.Errorf("negative tag accepted")
		}
		if err := c.Send(1, 1<<20, nil, nil); err == nil {
			return fmt.Errorf("huge tag accepted")
		}
		if _, _, err := c.Recv(9, 0); err == nil {
			return fmt.Errorf("out-of-range src accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := world(t, 1, 2)
	err := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 0:
			buf := []float64{1}
			if err := c.Send(1, 0, buf, nil); err != nil {
				return err
			}
			buf[0] = 99 // must not affect the in-flight message
		case 1:
			d, _, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			if d[0] != 1 {
				return fmt.Errorf("message mutated after send: %v", d)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingByTag(t *testing.T) {
	w := world(t, 1, 2)
	err := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 0:
			if err := c.Send(1, 1, []float64{1}, nil); err != nil {
				return err
			}
			if err := c.Send(1, 2, []float64{2}, nil); err != nil {
				return err
			}
		case 1:
			// Receive out of order: tag 2 first.
			d2, _, err := c.Recv(0, 2)
			if err != nil {
				return err
			}
			d1, _, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			if d2[0] != 2 || d1[0] != 1 {
				return fmt.Errorf("got %v %v", d2, d1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClockReconciliation(t *testing.T) {
	w := world(t, 2, 8)
	var recvAt float64
	err := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.Clock().Advance(2.0)
			return c.Send(7, 0, make([]float64, 1000), nil)
		case 7:
			_, _, err := c.Recv(0, 0)
			recvAt = c.Clock().Now()
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvAt <= 2.0 {
		t.Errorf("receive at %g, want after send time 2.0 plus wire time", recvAt)
	}
	if w.MaxTime() < recvAt {
		t.Error("MaxTime below receiver clock")
	}
}

func TestBarrier(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8, 13} {
		w := world(t, 4, size)
		err := w.Run(func(c *Comm) error {
			c.Clock().Advance(float64(c.Rank()))
			if err := c.Barrier(); err != nil {
				return err
			}
			// After a barrier every clock is at least the slowest entry.
			if c.Clock().Now() < float64(size-1) {
				return fmt.Errorf("rank %d clock %g below barrier floor %d", c.Rank(), c.Clock().Now(), size-1)
			}
			return nil
		})
		if err != nil {
			t.Errorf("size %d: %v", size, err)
		}
	}
}

func TestBcast(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 7, 16} {
		for root := 0; root < size; root += 2 {
			w := world(t, 4, size)
			err := w.Run(func(c *Comm) error {
				var data []float64
				var ints []int64
				if c.Rank() == root {
					data, ints = []float64{1, 2, 3}, []int64{9, 8}
				}
				data, ints, err := c.Bcast(root, data, ints)
				if err != nil {
					return err
				}
				if len(data) != 3 || len(ints) != 2 || data[0] != 1 || data[1] != 2 || data[2] != 3 || ints[0] != 9 || ints[1] != 8 {
					return fmt.Errorf("rank %d got %v %v", c.Rank(), data, ints)
				}
				return nil
			})
			if err != nil {
				t.Errorf("size %d root %d: %v", size, root, err)
			}
		}
	}
}

func TestBcastBadRoot(t *testing.T) {
	w := world(t, 1, 2)
	err := w.Run(func(c *Comm) error {
		if _, _, err := c.Bcast(5, nil, nil); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSum(t *testing.T) {
	for _, size := range []int{1, 2, 3, 6, 8, 11} {
		w := world(t, 4, size)
		results := make([][]float64, size)
		err := w.Run(func(c *Comm) error {
			data := []float64{float64(c.Rank() + 1), 1}
			ints := []int64{int64(c.Rank())}
			if err := c.AllReduceSum(data, ints); err != nil {
				return err
			}
			results[c.Rank()] = data
			wantF := float64(size*(size+1)) / 2
			if data[0] != wantF || data[1] != float64(size) {
				return fmt.Errorf("rank %d sum %v, want [%g %d]", c.Rank(), data, wantF, size)
			}
			wantI := int64(size * (size - 1) / 2)
			if ints[0] != wantI {
				return fmt.Errorf("rank %d int sum %d, want %d", c.Rank(), ints[0], wantI)
			}
			return nil
		})
		if err != nil {
			t.Errorf("size %d: %v", size, err)
		}
	}
}

func TestAllReduceSumBitwiseIdentical(t *testing.T) {
	const size = 7
	w := world(t, 2, size)
	results := make([][]float64, size)
	err := w.Run(func(c *Comm) error {
		data := []float64{math.Sqrt(float64(c.Rank()+2)) * 1e-7, math.Pi * float64(c.Rank())}
		if err := c.AllReduceSum(data, nil); err != nil {
			return err
		}
		results[c.Rank()] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < size; r++ {
		if results[r][0] != results[0][0] || results[r][1] != results[0][1] {
			t.Fatalf("rank %d result %v differs from rank 0 %v", r, results[r], results[0])
		}
	}
}

func TestAllReduceMinPairs(t *testing.T) {
	const size = 9
	w := world(t, 4, size)
	err := w.Run(func(c *Comm) error {
		// Element 0: plain minimum. Element 1: tie on value, index
		// breaks it. Element 2: minimum held by the last rank.
		vals := []float64{float64(10 + c.Rank()), 5.0, float64(100 - c.Rank())}
		idxs := []int64{int64(c.Rank()), int64(size - c.Rank()), int64(c.Rank())}
		if err := c.AllReduceMinPairs(vals, idxs); err != nil {
			return err
		}
		if vals[0] != 10 || idxs[0] != 0 {
			return fmt.Errorf("elem0 = %g/%d, want 10/0", vals[0], idxs[0])
		}
		if vals[1] != 5 || idxs[1] != 1 {
			return fmt.Errorf("elem1 = %g/%d, want 5/1 (tie to lowest index)", vals[1], idxs[1])
		}
		if vals[2] != float64(100-(size-1)) || idxs[2] != int64(size-1) {
			return fmt.Errorf("elem2 = %g/%d", vals[2], idxs[2])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceMinPairsMismatch(t *testing.T) {
	w := world(t, 1, 2)
	err := w.Run(func(c *Comm) error {
		if err := c.AllReduceMinPairs(make([]float64, 2), make([]int64, 3)); err == nil {
			return fmt.Errorf("mismatched lengths accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplit(t *testing.T) {
	const size = 10
	w := world(t, 4, size)
	err := w.Run(func(c *Comm) error {
		color := c.Rank() % 3
		sub, err := c.Split(color, c.Rank())
		if err != nil {
			return err
		}
		wantSize := size / 3
		if color < size%3 {
			wantSize++
		}
		if sub.Size() != wantSize {
			return fmt.Errorf("rank %d color %d: sub size %d, want %d", c.Rank(), color, sub.Size(), wantSize)
		}
		if sub.Global() != c.Rank() {
			return fmt.Errorf("global rank changed in split")
		}
		// Collectives work within the partition: sum of global ranks.
		data := []float64{float64(c.Rank())}
		if err := sub.AllReduceSum(data, nil); err != nil {
			return err
		}
		want := 0.0
		for r := color; r < size; r += 3 {
			want += float64(r)
		}
		if data[0] != want {
			return fmt.Errorf("color %d partial sum %g, want %g", color, data[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitThenWorldCollective(t *testing.T) {
	// Interleaving collectives on sub- and world communicators must not
	// cross-match messages.
	const size = 8
	w := world(t, 2, size)
	err := w.Run(func(c *Comm) error {
		sub, err := c.Split(c.Rank()/4, c.Rank())
		if err != nil {
			return err
		}
		data := []float64{1}
		if err := sub.AllReduceSum(data, nil); err != nil {
			return err
		}
		if data[0] != 4 {
			return fmt.Errorf("sub sum %g, want 4", data[0])
		}
		if err := c.AllReduceSum(data, nil); err != nil {
			return err
		}
		if data[0] != 32 {
			return fmt.Errorf("world sum %g, want 32", data[0])
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSplit(t *testing.T) {
	const size = 8
	w := world(t, 2, size)
	err := w.Run(func(c *Comm) error {
		half, err := c.Split(c.Rank()/4, c.Rank())
		if err != nil {
			return err
		}
		quarter, err := half.Split(half.Rank()/2, half.Rank())
		if err != nil {
			return err
		}
		if quarter.Size() != 2 {
			return fmt.Errorf("quarter size %d", quarter.Size())
		}
		data := []float64{float64(c.Rank())}
		if err := quarter.AllReduceSum(data, nil); err != nil {
			return err
		}
		base := float64(c.Rank() / 2 * 2) // pair base rank
		if data[0] != base+(base+1) {
			return fmt.Errorf("pair sum %g for rank %d", data[0], c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntraSupernodeFasterThanInter(t *testing.T) {
	// Two worlds: 256 nodes (one supernode) and 512 nodes with ranks
	// placed across the boundary. Same traffic, slower completion when
	// crossing supernodes.
	timeFor := func(nodes, size int) float64 {
		w := world(t, nodes, size)
		err := w.Run(func(c *Comm) error {
			return c.AllReduceSum(make([]float64, 20000), nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.MaxTime()
	}
	// 8 ranks inside one node span vs 8 ranks spread across two
	// supernodes (one rank per 64-node stride on a 512-node machine).
	intra := timeFor(2, 8)
	wSpread := world(t, 512, 2048)
	err := wSpread.Run(func(c *Comm) error {
		sub, err := c.Split(boolToInt(c.Rank()%256 == 0), c.Rank())
		if err != nil {
			return err
		}
		if c.Rank()%256 == 0 {
			return sub.AllReduceSum(make([]float64, 20000), nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	spread := wSpread.MaxTime()
	if spread <= intra {
		t.Errorf("cross-supernode allreduce (%g) should be slower than node-local (%g)", spread, intra)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestStatsRecorded(t *testing.T) {
	stats := trace.NewStats()
	w := MustWorld(machine.MustSpec(2), stats, 8)
	if err := w.Run(func(c *Comm) error {
		return c.AllReduceSum(make([]float64, 10), nil)
	}); err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	if snap.NetMessages == 0 || snap.NetBytes == 0 {
		t.Errorf("network traffic not recorded: %+v", snap)
	}
}

func TestAllReduceSumProperty(t *testing.T) {
	// Property: integer payloads sum exactly for arbitrary sizes.
	f := func(rawSize uint8, seed uint32) bool {
		size := int(rawSize)%13 + 1
		w, err := NewWorld(machine.MustSpec(4), nil, size)
		if err != nil {
			return false
		}
		vals := make([]float64, size)
		want := 0.0
		s := seed
		for i := range vals {
			s = s*1664525 + 1013904223
			vals[i] = float64(s % 4096)
			want += vals[i]
		}
		ok := true
		var mu sync.Mutex
		err = w.Run(func(c *Comm) error {
			data := []float64{vals[c.Rank()]}
			if err := c.AllReduceSum(data, nil); err != nil {
				return err
			}
			if data[0] != want {
				mu.Lock()
				ok = false
				mu.Unlock()
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
