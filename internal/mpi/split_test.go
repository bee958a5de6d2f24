package mpi

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/machine"
)

// refSplit is Split as each rank used to compute it on its own:
// gather the (color, key) table, keep this color's ranks, sort them
// by (key, rank), and derive the id from this color's index among the
// sorted distinct colors. The shared partition must reproduce it.
func refSplit(c *Comm, color, key int) (*Comm, error) {
	u, m := c.obsBegin()
	sub, err := refSplitBody(c, color, key)
	c.obsEnd(u, m, "mpi:split", 0)
	return sub, err
}

func refSplitBody(c *Comm, color, key int) (*Comm, error) {
	pairs, err := refAllGatherIntsShared(c, []int64{int64(color), int64(key)})
	if err != nil {
		return nil, err
	}
	type mem struct{ color, key, rank int }
	var mine []mem
	for r := 0; r < c.size; r++ {
		if col := int(pairs[2*r]); col == color {
			mine = append(mine, mem{col, int(pairs[2*r+1]), r})
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].rank < mine[j].rank
	})
	members := make([]int, len(mine))
	newRank := -1
	for i, m := range mine {
		members[i] = c.grp.members[m.rank]
		if m.rank == c.rank {
			newRank = i
		}
	}
	if newRank < 0 {
		return nil, fmt.Errorf("ref: rank %d missing from its own split", c.rank)
	}
	distinct := make(map[int]struct{}, c.size)
	var colors []int
	for r := 0; r < c.size; r++ {
		col := int(pairs[2*r])
		if _, ok := distinct[col]; !ok {
			distinct[col] = struct{}{}
			colors = append(colors, col)
		}
	}
	sort.Ints(colors)
	colorIdx := sort.SearchInts(colors, color)
	id := (c.id*1_000_003+c.seq)*65536 + uint64(colorIdx) + 1
	return &Comm{w: c.w, id: id, rank: newRank, size: len(members), grp: &group{members: members}}, nil
}

// commDigest is everything a split decides for one rank.
func commDigest(c *Comm) string {
	return fmt.Sprintf("size=%d rank=%d id=%#x members=%v", c.Size(), c.Rank(), c.id, c.grp.members)
}

// splitTable is one seeded (color, key) assignment per world rank.
type splitTable struct{ color, key []int }

// splitTables draws the property test's tables for size ranks.
func splitTables(rng *rand.Rand, size int) map[string]splitTable {
	gen := func(color, key func(r int) int) splitTable {
		t := splitTable{make([]int, size), make([]int, size)}
		for r := 0; r < size; r++ {
			t.color[r], t.key[r] = color(r), key(r)
		}
		return t
	}
	sparse := []int{-1_000_000_000, -7, 0, 3, 1_000_000_000}
	perm := rng.Perm(size)
	return map[string]splitTable{
		"negative": gen(func(int) int { return rng.Intn(7) - 3 }, func(int) int { return rng.Intn(11) - 5 }),
		"sparse":   gen(func(int) int { return sparse[rng.Intn(len(sparse))] }, func(int) int { return rng.Intn(1 << 20) }),
		"dupkeys":  gen(func(int) int { return rng.Intn(3) }, func(int) int { return 42 }),
		"reverse":  gen(func(int) int { return rng.Intn(2) - 1 }, func(r int) int { return size - r }),
		"onecolor": gen(func(int) int { return -5 }, func(int) int { return rng.Intn(4) }),
		"distinct": gen(func(r int) int { return perm[r]*2_000_003 - 1_000_000_000 }, func(int) int { return rng.Intn(3) }),
	}
}

// splitDigests runs one world epoch in which every rank splits by the
// table (then, when inner is set, splits its sub-communicator again by
// inner: sibling splits run concurrently) and returns each rank's
// digests.
func splitDigests(t *testing.T, w *World, split func(*Comm, int, int) (*Comm, error), outer splitTable, inner *splitTable) []string {
	t.Helper()
	out := make([]string, w.Size())
	err := w.Run(func(c *Comm) error {
		g := c.Global()
		sub, err := split(c, outer.color[g], outer.key[g])
		if err != nil {
			return err
		}
		out[g] = commDigest(sub)
		if inner != nil {
			subsub, err := split(sub, inner.color[g], inner.key[g])
			if err != nil {
				return err
			}
			out[g] += " / " + commDigest(subsub)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSplitMatchesReference pins the shared partition to the per-rank
// reference algorithm: for seeded tables with negative and sparse
// colors, duplicate and reversed keys, one color and all-distinct
// colors, every rank's new size, rank, members and communicator id are
// equal, for single and nested splits, under both drivers.
func TestSplitMatchesReference(t *testing.T) {
	for _, d := range []Driver{DriverGoroutine, DriverSched} {
		for _, size := range []int{1, 2, 7, 64, 300} {
			w := world(t, (size+3)/4, size)
			w.SetDriver(d)
			rng := rand.New(rand.NewSource(int64(size)))
			tables := splitTables(rng, size)
			names := make([]string, 0, len(tables))
			for name := range tables {
				names = append(names, name)
			}
			sort.Strings(names)
			for i, name := range names {
				outer := tables[name]
				inner := tables[names[(i+1)%len(names)]]
				t.Run(fmt.Sprintf("%s/%d/%s", d, size, name), func(t *testing.T) {
					for _, nest := range []*splitTable{nil, &inner} {
						want := splitDigests(t, w, refSplit, outer, nest)
						got := splitDigests(t, w, (*Comm).Split, outer, nest)
						for r := range want {
							if got[r] != want[r] {
								t.Fatalf("nested=%v rank %d:\n got %s\nwant %s", nest != nil, r, got[r], want[r])
							}
						}
						w.rvMu.Lock()
						left := len(w.calls)
						w.rvMu.Unlock()
						if left != 0 {
							t.Fatalf("nested=%v: %d calls left open after the epoch", nest != nil, left)
						}
					}
				})
			}
		}
	}
}

// TestNestedSplitMatchesReference is the TestNestedSplit shape: halves,
// then quarters split concurrently inside each half.
func TestNestedSplitMatchesReference(t *testing.T) {
	const size = 8
	halves := splitTable{make([]int, size), make([]int, size)}
	quarters := splitTable{make([]int, size), make([]int, size)}
	for r := 0; r < size; r++ {
		halves.color[r], halves.key[r] = r/4, r
		quarters.color[r], quarters.key[r] = r%4/2, r%4
	}
	for _, d := range []Driver{DriverGoroutine, DriverSched} {
		w := world(t, 2, size)
		w.SetDriver(d)
		got := splitDigests(t, w, (*Comm).Split, halves, &quarters)
		want := splitDigests(t, w, refSplit, halves, &quarters)
		if !slices.Equal(got, want) {
			t.Errorf("%s: got %q, want %q", d, got, want)
		}
	}
}

// TestBcastSharesRootPayload: every member gets the root's own
// slices, and a non-root's buffers are neither read nor written, so a
// rank that scribbles over its buffer while the broadcast runs cannot
// change what anybody receives.
func TestBcastSharesRootPayload(t *testing.T) {
	const size, root = 13, 3
	want := []float64{1.5, -2.25, 3}
	wantInts := []int64{7, -8}
	for _, d := range []Driver{DriverGoroutine, DriverSched} {
		w := world(t, 4, size)
		w.SetDriver(d)
		rootData, rootInts := slices.Clone(want), slices.Clone(wantInts)
		err := w.Run(func(c *Comm) error {
			data, ints := []float64{-1}, []int64{-1, -1, -1}
			if c.Rank() == root {
				data, ints = rootData, rootInts
			}
			got, gotInts, err := c.Bcast(root, data, ints)
			if err != nil {
				return err
			}
			if &got[0] != &rootData[0] || &gotInts[0] != &rootInts[0] {
				return fmt.Errorf("rank %d received a copy, not the root's slices", c.Rank())
			}
			if !slices.Equal(got, want) || !slices.Equal(gotInts, wantInts) {
				return fmt.Errorf("rank %d received %v %v", c.Rank(), got, gotInts)
			}
			if c.Rank() != root && (data[0] != -1 || !slices.Equal(ints, []int64{-1, -1, -1})) {
				return fmt.Errorf("rank %d's own buffers were written: %v %v", c.Rank(), data, ints)
			}
			if c.Rank() != root {
				data[0], ints[0] = 99, 99
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
	}
}

// TestAllReduceRowsSharesResult: every member of a row allreduce gets
// the same result, and the members' partials are only read: each still
// holds exactly the rows and sums it added, under both algorithms.
func TestAllReduceRowsSharesResult(t *testing.T) {
	const size = 6
	for _, d := range []Driver{DriverGoroutine, DriverSched} {
		for _, rows := range []int{8, ringThresholdElems / 64} {
			w := world(t, 2, size)
			w.SetDriver(d)
			sums := make([]*RowSums, size)
			err := w.Run(func(c *Comm) error {
				part := NewRowSums(rows, 63)
				x := make([]float64, 63)
				for j := c.Rank() % 3; j < rows; j += 3 {
					x[j%63] = float64(c.Rank() + j)
					part.Add(j, x)
				}
				held := len(part.present)
				sum, err := c.AllReduceRows(part)
				if err != nil {
					return err
				}
				sums[c.Rank()] = sum
				if len(part.present) != held {
					return fmt.Errorf("rank %d's partial went from %d to %d rows", c.Rank(), held, len(part.present))
				}
				for j := 0; j < rows; j++ {
					row, n := part.Row(j)
					if (j%3 == c.Rank()%3) != (n == 1) || (n == 1 && row[j%63] != float64(c.Rank()+j)) {
						return fmt.Errorf("rank %d's partial row %d was written: count %d", c.Rank(), j, n)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s/%d rows: %v", d, rows, err)
			}
			for r, sum := range sums {
				if sum != sums[0] {
					t.Fatalf("%s/%d rows: rank %d got its own result", d, rows, r)
				}
			}
			if _, n := sums[0].Row(rows - 1); n != size/3 {
				t.Errorf("%s/%d rows: last row count %d, want %d", d, rows, n, size/3)
			}
		}
	}
}

// TestAllGatherIntsResultIsPrivate: the slice AllGatherInts returns
// belongs to the caller. Half the ranks scribble over theirs while the
// other half wait at a barrier and then check theirs, both ways round,
// and a Split issued afterwards still partitions correctly.
func TestAllGatherIntsResultIsPrivate(t *testing.T) {
	const size = 11
	for _, d := range []Driver{DriverGoroutine, DriverSched} {
		w := world(t, 3, size)
		w.SetDriver(d)
		err := w.Run(func(c *Comm) error {
			for round := 0; round < 2; round++ {
				all, err := c.AllGatherInts([]int64{int64(c.Rank()), int64(-c.Rank())})
				if err != nil {
					return err
				}
				scribbler := c.Rank()%2 == round
				if scribbler {
					for i := range all {
						all[i] = 99
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if !scribbler {
					for r := 0; r < size; r++ {
						if all[2*r] != int64(r) || all[2*r+1] != int64(-r) {
							return fmt.Errorf("round %d rank %d sees %v", round, c.Rank(), all)
						}
					}
				}
			}
			color := c.Rank() % 3
			sub, err := c.Split(color, -c.Rank())
			if err != nil {
				return err
			}
			var members []int
			for r := size - 1; r >= 0; r-- {
				if r%3 == color {
					members = append(members, r)
				}
			}
			if !slices.Equal(sub.grp.members, members) || members[sub.Rank()] != c.Rank() {
				return fmt.Errorf("rank %d: sub rank %d members %v, want members %v", c.Rank(), sub.Rank(), sub.grp.members, members)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
	}
}

// TestSplitHostCostLinear is the complexity guard: one DES epoch of
// Split(rank%32, rank) at 4,096 ranks must allocate less than eight
// times what it does at 1,024, which a per-rank copy of the gathered
// table (quadratic: sixteen times) cannot meet.
func TestSplitHostCostLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("4,096-rank world in -short mode")
	}
	alloc := func(size int) uint64 {
		w := MustWorld(machine.MustSpec(size/4), nil, size)
		w.SetDriver(DriverSched)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := w.Run(func(c *Comm) error {
			_, err := c.Split(c.Rank()%32, c.Rank())
			return err
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(1024), alloc(4096)
	t.Logf("split epoch allocates %d B at 1,024 ranks, %d B at 4,096", small, large)
	if large >= 8*small {
		t.Errorf("4x the ranks allocates %.1fx the bytes (%d -> %d), want < 8x", float64(large)/float64(small), small, large)
	}
}
