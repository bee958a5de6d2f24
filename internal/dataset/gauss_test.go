package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/cpuid"
)

// forEachKernel runs f as one subtest per path of deviates: "avx2",
// with boxMuller, which runs only on a CPU with AVX2, and "go", with
// gauss alone, its reference. It restores the CPU's choice after.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	for _, kern := range []struct {
		name string
		avx2 bool
	}{{"avx2", true}, {"go", false}} {
		t.Run(kern.name, func(t *testing.T) {
			if kern.avx2 && !cpuid.AVX2() {
				t.Skip("this CPU has no AVX2")
			}
			saved := useAVX2
			useAVX2 = kern.avx2
			defer func() { useAVX2 = saved }()
			f(t)
		})
	}
}

// sampleDigest hashes the bits of rows 0, 1, n/2 and n-1 of src.
func sampleDigest(src Source) string {
	h := sha256.New()
	buf := make([]float64, src.D())
	var word [8]byte
	for _, i := range []int{0, 1, src.N() / 2, src.N() - 1} {
		src.Sample(i, buf)
		for _, x := range buf {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(x))
			h.Write(word[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// mixture, hard and landCover build generatorGolden's sources.
func mixture(seed uint64, d int) func() (Source, error) {
	return func() (Source, error) { return NewGaussianMixture("golden", 1001, d, 7, 0.25, 2.0, seed) }
}

func hard(d int) func() (Source, error) {
	return func() (Source, error) { return NewHardMixture("golden", 1001, d, 5, 0.15, 2.0, 3, 0.08, 0.7, 77) }
}

func landCover(d int) func() (Source, error) {
	return func() (Source, error) { return NewLandCover(33, 31, d, 5) }
}

// generatorGolden is sampleDigest of mixtures at widths around the
// deviate kernel's four-lane blocks and chunks, of the published
// shapes, and of the hard and land-cover workloads, which draw their
// noise from the same deviates; recorded before the kernel existed.
var generatorGolden = []struct {
	name, digest string
	src          func() (Source, error)
}{
	{"mixture/seed=1/d=1", "f6e73a8335a0f93a", mixture(1, 1)},
	{"mixture/seed=1/d=3", "81d39ad977173bd2", mixture(1, 3)},
	{"mixture/seed=1/d=4", "eabeecde09e2e2bd", mixture(1, 4)},
	{"mixture/seed=1/d=5", "2b2f6e59972dceeb", mixture(1, 5)},
	{"mixture/seed=1/d=63", "2c0418451dd251c5", mixture(1, 63)},
	{"mixture/seed=1/d=64", "3d48e857c8741163", mixture(1, 64)},
	{"mixture/seed=1/d=65", "727d1a2d2752a608", mixture(1, 65)},
	{"mixture/seed=1/d=257", "353d4609f902ce05", mixture(1, 257)},
	{"mixture/seed=1/d=3072", "cac34aa5a1bf13cf", mixture(1, 3072)},
	{"mixture/seed=0x5eed000a/d=1", "a050bbf9ada5ce4b", mixture(0x5EED_000A, 1)},
	{"mixture/seed=0x5eed000a/d=3", "de1b48e723f62dc9", mixture(0x5EED_000A, 3)},
	{"mixture/seed=0x5eed000a/d=4", "a011b2ca88735fb4", mixture(0x5EED_000A, 4)},
	{"mixture/seed=0x5eed000a/d=5", "44a43b638500fe74", mixture(0x5EED_000A, 5)},
	{"mixture/seed=0x5eed000a/d=63", "06f10b15adef012b", mixture(0x5EED_000A, 63)},
	{"mixture/seed=0x5eed000a/d=64", "effcd2930141ed89", mixture(0x5EED_000A, 64)},
	{"mixture/seed=0x5eed000a/d=65", "4b32d0a5c41fac3c", mixture(0x5EED_000A, 65)},
	{"mixture/seed=0x5eed000a/d=257", "fd1353ae79aaad26", mixture(0x5EED_000A, 257)},
	{"mixture/seed=0x5eed000a/d=3072", "50496d3ed634ba8a", mixture(0x5EED_000A, 3072)},
	{"Kegg(1)", "1c07f50f40d10dbb", func() (Source, error) { return Kegg(1) }},
	{"Census(1)", "a315f87b34cef8ef", func() (Source, error) { return Census(1) }},
	{"ImgNet(3072,1)", "464f82bf83ce98cf", func() (Source, error) { return ImgNet(3072, 1) }},
	{"hard/d=1", "58fb01804062b3fd", hard(1)},
	{"hard/d=6", "fc842c8604c0fa44", hard(6)},
	{"hard/d=67", "62105ae77c5bd727", hard(67)},
	{"landcover/d=1", "0ad786e1e0aedb36", landCover(1)},
	{"landcover/d=6", "0166405f5269e6ac", landCover(6)},
	{"landcover/d=67", "9f8c09e141db0769", landCover(67)},
}

// TestGaussianMixtureGolden pins the generators' bits to
// generatorGolden on both paths.
func TestGaussianMixtureGolden(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, c := range generatorGolden {
			src, err := c.src()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got := sampleDigest(src); got != c.digest {
				t.Errorf("%s: digest %s, want %s", c.name, got, c.digest)
			}
		}
	})
}

// TestDeviatesMatchesGo holds deviates to deviatesGo bit for bit at
// every width up to three chunks, so every split into whole chunks, a
// short chunk and a tail of 0 to 3 coordinates, and at two wide rows.
func TestDeviatesMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("deviates is deviatesGo on this CPU")
	}
	widths := []int{1000, 3072}
	for d := 0; d <= 3*gaussChunk+4; d++ {
		widths = append(widths, d)
	}
	for _, base := range []uint64{0, 0x9e3779b97f4a7c15, math.MaxUint64 - 5} {
		for _, d := range widths {
			got, want := make([]float64, d), make([]float64, d)
			deviates(base, got)
			deviatesGo(base, want)
			for u := range want {
				if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
					t.Fatalf("base %#x, d=%d: coordinate %d is %v (%#x), want %v (%#x)",
						base, d, u, got[u], math.Float64bits(got[u]), want[u], math.Float64bits(want[u]))
				}
			}
		}
	}
}

// TestSampleAllocatesNothing: the fine Level-2 kernel generates
// samples through Stage.Load inside a //swlint:hot loop, so the
// generators must not allocate, on either path (the chunk of v values
// stays on the stack only while boxMuller is //go:noescape).
func TestSampleAllocatesNothing(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, c := range generatorGolden {
			src, err := c.src()
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]float64, src.D())
			i := 0
			if allocs := testing.AllocsPerRun(20, func() {
				src.Sample(i%src.N(), buf)
				i++
			}); allocs != 0 {
				t.Errorf("%s: Sample allocates %v times per call", c.name, allocs)
			}
		}
	})
}
