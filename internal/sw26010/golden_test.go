package sw26010

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// The fine kernels' golden suite pins RunLevel3Group, RunLevel2CG and
// RunLevel1CG to recorded runs: assignments and iteration counts exactly, centroids
// and per-iteration virtual times bit for bit. The host-side shape of a
// kernel (how it stages samples, how the mesh allreduce sums) may
// change; what it computes and charges may not. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/sw26010 -run Golden, only when the
// simulated machine model changes deliberately.

// goldenRecord is one recorded run. Floats are hex IEEE-754 bit
// patterns, so the comparison is exact.
type goldenRecord struct {
	Iters     int      `json:"iters"`
	Converged bool     `json:"converged"`
	Assign    []int    `json:"assign"`
	Centroids []string `json:"centroid_bits"`
	IterTimes []string `json:"iter_time_bits"`
}

func toBits(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%016x", math.Float64bits(x))
	}
	return out
}

// TestFineKernelGolden covers the Level-3 stripe widths the kernel
// distinguishes, three Level-2 CPE-group shapes and one Level-1 run:
//   - level3_d8: d=8 over 64 CPEs, so 56 stripes are empty;
//   - level3_d12: CPEs 8–11 of the mesh's second octet hold one
//     coordinate each and 12–15 none, so the allreduce's 8-deposit
//     base mixes full and empty stripes;
//   - level3_d100_batch7: stripes 1 and 2 coordinates wide, and n not a
//     multiple of the batch, so the last batch is short;
//   - level1: RunLevel1CG, whose Update sums k·d floats per CPE through
//     the mesh allreduce; at 16 samples per CPE the centroids' last bits
//     depend on the order of that tree sum (swapping two deposits in its
//     8-deposit base fails this case).
func TestFineKernelGolden(t *testing.T) {
	spec := machine.MustSpec(1)
	cases := []struct {
		name    string
		n, d, k int
		seed    uint64
		iters   int
		mPrime  int // 0: RunLevel1CG, or RunLevel2CG when mgroup is set
		batch   int
		mgroup  int
	}{
		{name: "level3_d8", n: 160, d: 8, k: 5, seed: 3, iters: 6, mPrime: 2, batch: 32},
		{name: "level3_d12", n: 120, d: 12, k: 5, seed: 2, iters: 5, mPrime: 2, batch: 16},
		{name: "level3_d100_batch7", n: 96, d: 100, k: 6, seed: 1, iters: 5, mPrime: 2, batch: 7},
		{name: "level2_mgroup1", n: 160, d: 8, k: 5, seed: 4, iters: 5, mgroup: 1},
		{name: "level2_mgroup8", n: 200, d: 12, k: 16, seed: 6, iters: 5, mgroup: 8},
		{name: "level2_mgroup8_k13", n: 150, d: 8, k: 13, seed: 7, iters: 5, mgroup: 8},
		{name: "level1", n: 1024, d: 8, k: 6, seed: 5, iters: 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := mixture(t, tc.n, tc.d, 4)
			init, err := core.InitialCentroids(g, tc.k, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			var res *Result
			switch {
			case tc.mgroup > 0:
				res, err = RunLevel2CG(spec, g, init, tc.mgroup, tc.iters, 0)
			case tc.mPrime == 0:
				res, err = RunLevel1CG(spec, g, init, tc.iters, 0)
			default:
				res, err = RunLevel3Group(spec, g, init, tc.mPrime, tc.batch, tc.iters, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			got := goldenRecord{
				Iters:     res.Iters,
				Converged: res.Converged,
				Assign:    res.Assign,
				Centroids: toBits(res.Centroids),
				IterTimes: toBits(res.IterTimes),
			}
			path := filepath.Join("testdata", "golden_"+tc.name+".json")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				data, err := json.MarshalIndent(got, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("recorded %s", path)
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (regenerate with UPDATE_GOLDEN=1): %v", err)
			}
			var want goldenRecord
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if got.Iters != want.Iters || got.Converged != want.Converged {
				t.Errorf("iters/converged = %d/%v, golden %d/%v", got.Iters, got.Converged, want.Iters, want.Converged)
			}
			if len(got.Assign) != len(want.Assign) {
				t.Fatalf("assignment length %d, golden %d", len(got.Assign), len(want.Assign))
			}
			for i := range want.Assign {
				if got.Assign[i] != want.Assign[i] {
					t.Fatalf("assign[%d] = %d, golden %d", i, got.Assign[i], want.Assign[i])
				}
			}
			equalBits(t, "centroid", got.Centroids, want.Centroids)
			equalBits(t, "iter time", got.IterTimes, want.IterTimes)
		})
	}
}

// equalBits asserts that two lists of hex bit patterns are equal.
func equalBits(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s count %d, golden %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] bits %s, golden %s", what, i, got[i], want[i])
		}
	}
}
