package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/trace"
)

// runAlloc returns the bytes one Run of cfg over src allocates: the
// least of two runs after a GC each, so that garbage from earlier work
// and other goroutines does not count.
func runAlloc(t *testing.T, cfg Config, src dataset.Source) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	for i := 0; i < 2; i++ {
		cfg.Stats = trace.NewStats()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg, src); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestLevel3HostCost is the host-cost guard of the stored-once model:
// one DES Level-3 iteration at des-4k's shape (ImgNet's n, k = 2,000,
// d = 256, m' = 128, every 4,096th sample) must allocate less than
// 128 MB at 4,096 ranks, and each rank beyond 1,024 less than 24 KB.
// A private centroid stripe and dense sums per rank cost 2 × 15.6 rows
// × 256 × 8 B = 64 KB a rank, 262 MB at 4,096 ranks; position-shared
// stripes and row-sparse sums cost a few rows per position and per
// touched slot, next to min-reduce buffers sized to the shard's
// largest batch (10 samples, 160 B a rank) and no sample row of a
// rank's own (a winner adds its sample from its CG group's stage):
// about 27 MB, 2.5 KB a rank.
func TestLevel3HostCost(t *testing.T) {
	if testing.Short() {
		t.Skip("4,096-rank worlds in -short mode")
	}
	const d, k, mPrime = 256, 2000, 128
	g, err := dataset.NewGaussianMixture("imgnet", dataset.ImgNetN, d, 128, 0.25, 2.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialCentroids(g, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(nodes int) uint64 {
		return runAlloc(t, Config{
			Spec: machine.MustSpec(nodes), Level: Level3, K: k, MPrimeGroup: mPrime,
			MaxIters: 1, Seed: 1, Initial: init, SampleStride: 4096, Sched: true,
		}, g)
	}
	small, large := alloc(256), alloc(1024)
	perRank := float64(large-min(large, small)) / 3072
	t.Logf("one iteration allocates %d B at 1,024 ranks, %d B at 4,096 (%.0f B per added rank)", small, large, perRank)
	if large >= 128<<20 {
		t.Errorf("one iteration allocates %d B at 4,096 ranks, want < %d", large, 128<<20)
	}
	if perRank >= 24<<10 {
		t.Errorf("each rank beyond 1,024 allocates %.0f B, want < %d", perRank, 24<<10)
	}
}

// TestLevel3HostCostLargeD is the host-cost guard of the one model
// matrix: at d = 16,384 a d-wide buffer is 128 KB, so a copy of the
// model, or a sample buffer per rank, shows at once. One Level-3
// iteration (k = 64, m' = 16, every 4,096th of 65,536 samples, so one
// sample per CG group) must allocate less than 80 MB at 1,024 ranks,
// and each rank beyond 256 less than 64 KB, under both drivers. A
// run that copies the model into stripes and back out, and gives each
// rank its own d-wide buffer, allocates about 186 MB at 1,024 ranks,
// 156 KB a rank; one k·d matrix (8 MiB) and one staged row per CG
// group cost about 28 MB, 18 KB a rank.
func TestLevel3HostCostLargeD(t *testing.T) {
	if testing.Short() {
		t.Skip("1,024-rank worlds at d = 16,384 in -short mode")
	}
	const n, d, k, mPrime = 65536, 16384, 64, 16
	g, err := dataset.NewGaussianMixture("larged", n, d, 16, 0.25, 2.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	init, err := InitialCentroids(g, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, drv := range drivers {
		alloc := func(nodes int) uint64 {
			return runAlloc(t, Config{
				Spec: machine.MustSpec(nodes), Level: Level3, K: k, MPrimeGroup: mPrime,
				MaxIters: 1, Seed: 1, Initial: init, SampleStride: 4096, Sched: drv.sched,
			}, g)
		}
		small, large := alloc(64), alloc(256)
		perRank := float64(large-min(large, small)) / 768
		t.Logf("%s driver: one iteration allocates %d B at 256 ranks, %d B at 1,024 (%.0f B per added rank)",
			drv.name, small, large, perRank)
		if large >= 80<<20 {
			t.Errorf("%s driver: one iteration allocates %d B at 1,024 ranks, want < %d", drv.name, large, 80<<20)
		}
		if perRank >= 64<<10 {
			t.Errorf("%s driver: each rank beyond 256 allocates %.0f B, want < %d", drv.name, perRank, 64<<10)
		}
	}
}

// TestRestoreBroadcastsOneModel guards the restore: rank 0 loads the
// checkpoint and every rank reads that one matrix. A k·d buffer per
// rank for the broadcast (256 KB at k = 256, d = 128) costs 256 MB over
// 1,024 ranks; a run that restores once must stay under 64 MB.
func TestRestoreBroadcastsOneModel(t *testing.T) {
	if testing.Short() {
		t.Skip("1,024-rank worlds in -short mode")
	}
	const n, d, k = 4096, 128, 256
	g, err := dataset.NewGaussianMixture("restore", n, d, 16, 0.25, 2.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Spec: machine.MustSpec(256), Level: Level3, K: k, MPrimeGroup: 64,
		MaxIters: 3, Seed: 2, SampleStride: 64, Sched: true, CheckpointInterval: 1,
	}
	clean, err := Run(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fault.Plan{Crashes: []fault.Crash{{CG: 5, At: 1.5 * clean.IterTimes[0]}}}
	res, err := Run(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if rec := res.Recovery; rec == nil || rec.Replans != 1 || rec.RestoreSeconds <= 0 {
		t.Fatalf("recovery %+v, want one re-plan and a restore", res.Recovery)
	}
	got := runAlloc(t, cfg, g)
	t.Logf("the faulty run allocates %d B", got)
	if got >= 64<<20 {
		t.Errorf("the faulty run allocates %d B, want < %d", got, 64<<20)
	}
}

// TestNegativeZeroSamplesMatchLloyd: a cluster whose samples are all −0
// in a coordinate has the centroid +0 there, because every sum starts
// at +0 and +0 + −0 = +0. Every engine, both drivers, must return
// sequential Lloyd's centroids bit for bit on such data; the sample
// values are small integers, so every order of addition is exact and
// only the sign of zero can differ. A row-sparse sum that copied its
// first sample in, instead of adding it to +0, would keep −0.
func TestNegativeZeroSamplesMatchLloyd(t *testing.T) {
	const n, d, k = 96, 3, 6
	negZero := math.Copysign(0, -1)
	rows := make([][]float64, n)
	for i := range rows {
		c := float64(i % k)
		rows[i] = []float64{negZero, 10*c + float64(i%5), float64((i*7)%3) - 1}
		if i%k == 2 {
			rows[i][2] = negZero
		}
	}
	x, err := dataset.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Lloyd(x, k, 6, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Signbit(ref.Centroids[0]) {
		t.Fatal("Lloyd's centroid keeps −0; the data do not exercise the sign")
	}
	for _, level := range []Level{Level1, Level2, Level3} {
		for _, sched := range []bool{false, true} {
			cfg := Config{Spec: machine.MustSpec(2), Level: level, K: k, MPrimeGroup: 4,
				MaxIters: 6, Seed: 3, Sched: sched}
			res, err := Run(cfg, x)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Assign, ref.Assign) {
				t.Fatalf("%v sched=%v: assignments differ from Lloyd's", level, sched)
			}
			compareBits(t, level.String()+" centroid", res.Centroids, ref.Centroids)
		}
	}
}
