package serve

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

func mkSnap(t *testing.T, epoch uint64, cents []float64, k, d, shards int) *Snapshot {
	t.Helper()
	s, err := NewSnapshot(epoch, cents, k, d, shards, 0, "test")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSnapshotValidation(t *testing.T) {
	if _, err := NewSnapshot(1, []float64{1, 2, 3}, 2, 2, 1, 0, "test"); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := NewSnapshot(1, nil, 0, 0, 1, 0, "test"); err == nil {
		t.Error("empty model accepted")
	}
}

func TestNewSnapshotShardPartition(t *testing.T) {
	cases := []struct{ k, shards, want int }{
		{10, 4, 4},
		{10, 1, 1},
		{3, 8, 3},  // clamped to k
		{5, 0, 1},  // clamped to 1
		{5, -2, 1}, // clamped to 1
	}
	for _, c := range cases {
		cents := make([]float64, c.k*2)
		s := mkSnap(t, 1, cents, c.k, 2, c.shards)
		if len(s.Shards) != c.want {
			t.Fatalf("k=%d shards=%d: got %d stripes, want %d", c.k, c.shards, len(s.Shards), c.want)
		}
		// The stripes must partition [0,k): contiguous, non-empty, total k.
		lo := 0
		for i, sh := range s.Shards {
			if sh.Lo != lo || sh.Hi <= sh.Lo {
				t.Fatalf("k=%d shards=%d: stripe %d is [%d,%d) after %d", c.k, c.shards, i, sh.Lo, sh.Hi, lo)
			}
			lo = sh.Hi
		}
		if lo != c.k {
			t.Fatalf("k=%d shards=%d: stripes cover [0,%d), want [0,%d)", c.k, c.shards, lo, c.k)
		}
	}
}

func TestSnapshotCopiesCentroids(t *testing.T) {
	cents := []float64{1, 2, 3, 4}
	s := mkSnap(t, 1, cents, 2, 2, 2)
	cents[0] = 99
	if s.Centroids[0] != 1 {
		t.Fatal("snapshot aliases the caller's centroid buffer")
	}
}

// TestSnapshotAssignMatchesUnsharded requires every shard count 1..k
// to answer exactly what core.Nearest answers over the whole matrix,
// index and distance bits, including on grids with duplicate centroids
// (ties across stripe boundaries) and non-finite centroids.
func TestSnapshotAssignMatchesUnsharded(t *testing.T) {
	// A deterministic centroid grid with deliberate duplicates so ties
	// exercise the lowest-index rule across stripe boundaries.
	const k, d = 17, 3
	grid := make([]float64, k*d)
	for j := 0; j < k; j++ {
		for u := 0; u < d; u++ {
			grid[j*d+u] = float64((j*7+u*3)%9) * 0.5
		}
	}
	copy(grid[15*d:16*d], grid[2*d:3*d]) // duplicate of centroid 2
	queries := [][]float64{
		{0, 0, 0},
		{1, 1.5, 2},
		{4, 4, 4},
		{0.99, 2.01, 3.5},
		grid[2*d : 3*d], // exactly on the duplicated centroid
		{1e308, -1e308, 0},
	}
	nan, inf := math.NaN(), math.Inf(1)
	// with returns the grid with the given centroid coordinates set.
	with := func(set map[int]float64) []float64 {
		c := append([]float64(nil), grid...)
		for i, v := range set {
			c[i] = v
		}
		return c
	}
	models := []struct {
		name  string
		cents []float64
	}{
		{"finite", grid},
		{"NaN centroid 0", with(map[int]float64{1: nan})},
		{"NaN centroids", with(map[int]float64{3 * d: nan, 8*d + 2: nan, 9 * d: nan, 16 * d: nan})},
		{"infinite centroids", with(map[int]float64{0: inf, 4*d + 1: -inf, 9*d + 2: inf})},
		{"mixed", with(map[int]float64{5 * d: nan, 6 * d: inf, 7*d + 1: -inf, 12 * d: 1e308})},
	}
	for _, m := range models {
		for shards := 1; shards <= k; shards++ {
			s := mkSnap(t, 1, m.cents, k, d, shards)
			for qi, x := range queries {
				wantJ, wantD := core.Nearest(x, m.cents, d, -1)
				gotJ, gotD, err := s.Assign(x, nil)
				if err != nil {
					t.Fatal(err)
				}
				if gotJ != wantJ || math.Float64bits(gotD) != math.Float64bits(wantD) {
					t.Fatalf("%s, shards=%d, query %d: got (%d,%g), want (%d,%g)", m.name, shards, qi, gotJ, gotD, wantJ, wantD)
				}
			}
		}
	}
}

// TestSnapshotAssignNaNDoesNotHideShard is the shard-count dependence
// a NaN at the start of a shard used to cause: with centroids
// {5, 3, NaN, 1} and query {0}, two shards answered centroid 1 while
// one and four answered centroid 3.
func TestSnapshotAssignNaNDoesNotHideShard(t *testing.T) {
	cents := []float64{5, 3, math.NaN(), 1}
	for shards := 1; shards <= 4; shards++ {
		j, dist, err := mkSnap(t, 1, cents, 4, 1, shards).Assign([]float64{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if j != 3 || dist < 1 || dist > 1 {
			t.Fatalf("shards=%d: got (%d, %g), want (3, 1)", shards, j, dist)
		}
	}
}

func TestSnapshotAssignValidatesDims(t *testing.T) {
	s := mkSnap(t, 1, []float64{1, 2, 3, 4}, 2, 2, 2)
	if _, _, err := s.Assign([]float64{1}, nil); err == nil {
		t.Fatal("wrong-dimensionality query accepted")
	}
}

func TestSnapshotAssignVisitAborts(t *testing.T) {
	s := mkSnap(t, 1, []float64{0, 0, 10, 10}, 2, 2, 2)
	calls := 0
	wantErr := errChaosCrash // any sentinel
	_, _, err := s.Assign([]float64{0, 0}, func(shard int) error {
		calls++
		return wantErr
	})
	if err != wantErr {
		t.Fatalf("visit error not propagated: %v", err)
	}
	if calls != 1 {
		t.Fatalf("merge continued after visit error: %d calls", calls)
	}
}

func TestStorePublishMonotonic(t *testing.T) {
	var st Store
	if st.Current() != nil {
		t.Fatal("empty store has a snapshot")
	}
	if err := st.Publish(nil); err == nil {
		t.Fatal("nil publish accepted")
	}
	if err := st.Publish(mkSnap(t, 3, []float64{1, 2}, 1, 2, 1)); err != nil {
		t.Fatal(err)
	}
	// Equal and lower epochs are stale.
	for _, e := range []uint64{3, 2, 1} {
		if err := st.Publish(mkSnap(t, e, []float64{1, 2}, 1, 2, 1)); err == nil {
			t.Fatalf("epoch %d accepted over live epoch 3", e)
		}
	}
	if st.Rejected() != 3 {
		t.Fatalf("Rejected = %d, want 3", st.Rejected())
	}
	// Gaps are legal.
	if err := st.Publish(mkSnap(t, 10, []float64{1, 2}, 1, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if st.Current().Epoch != 10 {
		t.Fatalf("live epoch %d, want 10", st.Current().Epoch)
	}
}

func TestStorePublishRejectsNonFinite(t *testing.T) {
	var st Store
	live := mkSnap(t, 1, []float64{0, 0, 1, 1, 2, 2}, 3, 2, 2)
	if err := st.Publish(live); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// Element 1 is summed in the four-value blocks, element 5 in
		// the tail.
		for _, at := range []int{1, 5} {
			cents := []float64{0, 0, 1, 1, 2, 2}
			cents[at] = v
			err := st.Publish(mkSnap(t, 2, cents, 3, 2, 2))
			want := fmt.Sprintf("centroid %d dimension %d", at/2, at%2)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("publishing %v at %d: error %v, want one naming %s", v, at, err, want)
			}
			if st.Current() != live {
				t.Fatalf("publishing %v replaced the live snapshot", v)
			}
		}
	}
	if st.Rejected() != 0 {
		t.Fatalf("Rejected = %d, want 0: a non-finite model is not a stale one", st.Rejected())
	}
	// The refused epoch is still free for a finite model, and finite
	// values whose sum overflows are finite.
	huge := []float64{math.MaxFloat64, math.MaxFloat64, 1, 1, math.MaxFloat64, -1}
	if err := st.Publish(mkSnap(t, 2, huge, 3, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if st.Current().Epoch != 2 {
		t.Fatalf("live epoch %d, want 2", st.Current().Epoch)
	}
}

func TestStoreConcurrentPublishersAndReaders(t *testing.T) {
	// Racing publishers and readers: the live epoch must never move
	// backwards from a reader's point of view, and every read must be a
	// whole snapshot (epoch consistent with its payload).
	var st Store
	const writers, epochsPer = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for e := 1; e <= epochsPer; e++ {
				epoch := uint64(e*writers + w)
				// Encode the epoch into the payload so readers can detect
				// a torn snapshot.
				s, err := NewSnapshot(epoch, []float64{float64(epoch), float64(epoch)}, 1, 2, 1, 0, "race")
				if err != nil {
					t.Error(err)
					return
				}
				_ = st.Publish(s) // stale publishes are expected losses
			}
		}(w)
	}
	stop := make(chan struct{})
	readErr := make(chan error, 1)
	go func() {
		defer close(readErr)
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := st.Current()
			if s == nil {
				continue
			}
			if s.Epoch < last {
				readErr <- fmt.Errorf("epoch regressed %d -> %d", last, s.Epoch)
				return
			}
			last = s.Epoch
			if s.Centroids[0] != float64(s.Epoch) || s.Centroids[1] != float64(s.Epoch) {
				readErr <- fmt.Errorf("torn read at epoch %d: payload %v", s.Epoch, s.Centroids)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-readErr; err != nil {
		t.Fatal(err)
	}
	if st.Current() == nil {
		t.Fatal("no snapshot survived the race")
	}
}
