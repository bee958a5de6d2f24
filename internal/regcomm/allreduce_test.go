package regcomm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// refAllReduce is the algorithm AllReduce replays, run for real on
// Send and Recv: recursive doubling along the row bus (the partner
// differs in one column bit), then down the column bus (one row bit),
// each step exchanging the whole payload.
func refAllReduce(c *CPE, buf []float64, counts []int64) error {
	for _, phase := range [2]struct{ stride, limit int }{
		{1, machine.MeshSide},
		{machine.MeshSide, machine.CPEsPerCG},
	} {
		for step := phase.stride; step < phase.limit; step *= 2 {
			pos := (c.ID() / phase.stride) % machine.MeshSide
			peer := c.ID() + (pos^(step/phase.stride)-pos)*phase.stride
			if err := c.Send(peer, buf, counts); err != nil {
				return err
			}
			data, ints, err := c.Recv(peer)
			if err != nil {
				return err
			}
			if len(data) != len(buf) || len(ints) != len(counts) {
				return fmt.Errorf("payload mismatch on CPE %d", c.ID())
			}
			for i, v := range data {
				buf[i] += v
			}
			for i, v := range ints {
				counts[i] += v
			}
		}
	}
	return nil
}

// reduceCase is one seeded allreduce scenario: payload lengths, the
// value mix, and the CPEs' entry-clock skew.
type reduceCase struct {
	name           string
	floats, counts int
	rounds         int
	seed           int64
	// special draws floats from specialValue instead of floatValue.
	special bool
	// zeros has bit i set when CPE i's floats are all +0.
	zeros uint64
}

// reduceOutcome is everything a CPE can observe of a run of rounds.
type reduceOutcome struct {
	floats [][][]uint64 // [round][cpe] result bits
	counts [][][]int64  // [round][cpe]
	clocks []uint64     // final clock bits per CPE
	spans  [][]obs.Span // per CPE
	stats  trace.Snapshot
}

// floatValue draws element e's value. One element in four mixes signed
// zeros, infinities and subnormals into ordinary values, one in four
// holds values near the top of the range whose sums overflow, and the
// rest are finite values of mixed sign and magnitude, whose rounded sum
// depends on the order of the additions.
func floatValue(rng *rand.Rand, e int) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch e % 4 {
	case 0:
		switch rng.Intn(8) {
		case 0:
			return math.Copysign(0, sign)
		case 1:
			return math.Inf(int(sign))
		case 2, 3:
			return sign * float64(rng.Intn(8)+1) * math.SmallestNonzeroFloat64
		}
	case 1:
		return sign * 1e308 * (1 + rng.Float64())
	}
	return sign * rng.Float64() * math.Pow(10, float64(rng.Intn(16)-8))
}

// specialValue draws element e's value from the ones IEEE addition
// treats specially. Elements 0 mod 4 are −0 on every CPE, so a sum is
// −0 exactly when no +0 joins it; elements 1 mod 4 are signed zeros;
// elements 2 mod 4 mix infinities and NaNs with random payloads, quiet
// and signalling, into ordinary values; the rest are ordinary values.
func specialValue(rng *rand.Rand, e int) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch e % 4 {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return math.Copysign(0, sign)
	case 2:
		switch rng.Intn(8) {
		case 0:
			return math.Inf(int(sign))
		case 1:
			return math.Float64frombits(uint64(rng.Int63()) | 0x7ff0000000000001)
		}
	}
	return sign * rng.Float64() * math.Pow(10, float64(rng.Intn(16)-8))
}

// runRounds runs tc's rounds on a fresh observed mesh with reduce as
// the allreduce. Every CPE starts each round at its own skewed clock,
// with CPE 37 a straggler far ahead. After a round, CPE 0 refills its
// buffers and re-enters at once while the others yield first, so the
// next round begins before they have all left the previous one.
func runRounds(tc reduceCase, reduce func(*CPE, []float64, []int64) error) (reduceOutcome, error) {
	stats := trace.NewStats()
	mesh := NewMesh(spec(), stats)
	rec := obs.NewRecorder()
	mesh.SetObserver(rec, "")
	out := reduceOutcome{
		floats: make([][][]uint64, tc.rounds),
		counts: make([][][]int64, tc.rounds),
		clocks: make([]uint64, machine.CPEsPerCG),
		spans:  make([][]obs.Span, machine.CPEsPerCG),
	}
	for r := range out.floats {
		out.floats[r] = make([][]uint64, machine.CPEsPerCG)
		out.counts[r] = make([][]int64, machine.CPEsPerCG)
	}
	errs := make([]error, machine.CPEsPerCG)
	mesh.Run(func(c *CPE) {
		rng := rand.New(rand.NewSource(tc.seed*1000 + int64(c.ID())))
		var buf []float64
		var cnt []int64
		if tc.floats > 0 {
			buf = make([]float64, tc.floats)
		}
		if tc.counts > 0 {
			cnt = make([]int64, tc.counts)
		}
		for r := 0; r < tc.rounds; r++ {
			if c.ID() != 0 {
				runtime.Gosched()
			}
			for i := range buf {
				if tc.special {
					buf[i] = specialValue(rng, i)
				} else {
					buf[i] = floatValue(rng, i)
				}
				if tc.zeros>>c.ID()&1 == 1 {
					buf[i] = 0
				}
			}
			for i := range cnt {
				cnt[i] = rng.Int63n(1<<62) - 1<<61
			}
			c.Clock().Advance(rng.Float64() * 1e-6)
			if c.ID() == 37 {
				c.Clock().Advance(1e-3)
			}
			if err := reduce(c, buf, cnt); err != nil {
				errs[c.ID()] = err
				return
			}
			bits := make([]uint64, len(buf))
			for i, v := range buf {
				bits[i] = math.Float64bits(v)
			}
			out.floats[r][c.ID()] = bits
			out.counts[r][c.ID()] = append([]int64(nil), cnt...)
		}
	})
	for id, err := range errs {
		if err != nil {
			return out, fmt.Errorf("CPE %d: %w", id, err)
		}
	}
	for id := range out.clocks {
		out.clocks[id] = math.Float64bits(mesh.clocks[id].Now())
		out.spans[id] = mesh.Unit(id).Spans()
	}
	out.stats = stats.Snapshot()
	return out, nil
}

func sameSpan(a, b obs.Span) bool {
	return a.Kind == b.Kind && a.Iter == b.Iter && a.Bytes == b.Bytes && a.Flops == b.Flops &&
		math.Float64bits(a.Start) == math.Float64bits(b.Start) &&
		math.Float64bits(a.End) == math.Float64bits(b.End)
}

func TestAllReduceMatchesRecursiveDoubling(t *testing.T) {
	var cases []reduceCase
	cases = append(cases, reduceCase{name: "barrier", rounds: 3, seed: 1})
	for i, n := range []int{1, 7, 2112, 4096} {
		seed := int64(10 * (i + 1))
		cases = append(cases,
			reduceCase{name: fmt.Sprintf("floats+counts/%d", n), floats: n, counts: n/2 + 1, rounds: 3, seed: seed},
			reduceCase{name: fmt.Sprintf("floats/%d", n), floats: n, rounds: 3, seed: seed + 1},
			reduceCase{name: fmt.Sprintf("counts/%d", n), counts: n, rounds: 3, seed: seed + 2},
		)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := runRounds(tc, refAllReduce)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			got, err := runRounds(tc, (*CPE).AllReduce)
			if err != nil {
				t.Fatalf("AllReduce: %v", err)
			}
			compareOutcomes(t, got, want)
		})
	}
}

// compareOutcomes fails t unless got matches want bit for bit: every
// round's result on every CPE, every CPE's final clock and span list,
// and the register traffic.
func compareOutcomes(t *testing.T, got, want reduceOutcome) {
	t.Helper()
	for r := range want.floats {
		for id := 0; id < machine.CPEsPerCG; id++ {
			g, w := got.floats[r][id], want.floats[r][id]
			if len(g) != len(w) {
				t.Fatalf("round %d CPE %d: %d floats, reference %d", r, id, len(g), len(w))
			}
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("round %d CPE %d float %d: %#x (%g), reference %#x (%g)",
						r, id, i, g[i], math.Float64frombits(g[i]), w[i], math.Float64frombits(w[i]))
				}
			}
			gc, wc := got.counts[r][id], want.counts[r][id]
			if len(gc) != len(wc) {
				t.Fatalf("round %d CPE %d: %d counts, reference %d", r, id, len(gc), len(wc))
			}
			for i := range wc {
				if gc[i] != wc[i] {
					t.Fatalf("round %d CPE %d count %d: %d, reference %d", r, id, i, gc[i], wc[i])
				}
			}
		}
	}
	for id := 0; id < machine.CPEsPerCG; id++ {
		if got.clocks[id] != want.clocks[id] {
			t.Errorf("CPE %d clock %g, reference %g", id,
				math.Float64frombits(got.clocks[id]), math.Float64frombits(want.clocks[id]))
		}
		g, w := got.spans[id], want.spans[id]
		if len(g) != len(w) {
			t.Errorf("CPE %d records %d spans, reference %d", id, len(g), len(w))
			continue
		}
		for i := range w {
			if !sameSpan(g[i], w[i]) {
				t.Errorf("CPE %d span %d: %+v, reference %+v", id, i, g[i], w[i])
				break
			}
		}
	}
	if got.stats.RegBytes != want.stats.RegBytes || got.stats.RegTransfers != want.stats.RegTransfers {
		t.Errorf("traffic %d bytes in %d transfers, reference %d in %d",
			got.stats.RegBytes, got.stats.RegTransfers, want.stats.RegBytes, want.stats.RegTransfers)
	}
}

// sharedReduce enters the allreduce through AllReduceZeros on the CPEs
// in zeros and through AllReduceShared on the others, fails unless the
// buffers a CPE passed come back untouched, and copies the shared
// result out so that runRounds records it.
func sharedReduce(zeros uint64) func(*CPE, []float64, []int64) error {
	return func(c *CPE, buf []float64, counts []int64) error {
		var sum []float64
		var total []int64
		var err error
		if zeros>>c.ID()&1 == 1 {
			sum, err = c.AllReduceZeros(len(buf))
		} else {
			bits := make([]uint64, len(buf))
			for i, v := range buf {
				bits[i] = math.Float64bits(v)
			}
			kept := slices.Clone(counts)
			sum, total, err = c.AllReduceShared(buf, counts)
			for i, v := range buf {
				if math.Float64bits(v) != bits[i] {
					return fmt.Errorf("AllReduceShared wrote float %d of its caller's buffer", i)
				}
			}
			if !slices.Equal(counts, kept) {
				return fmt.Errorf("AllReduceShared wrote its caller's counts")
			}
		}
		if err != nil {
			return err
		}
		if len(sum) != len(buf) || len(total) != len(counts) {
			return fmt.Errorf("shared result holds %d floats and %d counts, want %d and %d",
				len(sum), len(total), len(buf), len(counts))
		}
		copy(buf, sum)
		copy(counts, total)
		return nil
	}
}

// TestAllReduceSharedAndZerosMatchExplicitZeros holds the shared view
// and the zero deposits to AllReduce over explicit +0 buffers, on
// payloads of signed zeros, infinities and NaNs: result bits, clocks,
// spans and traffic. The sets of zero-declaring CPEs cover the tree sum's
// shortcuts: none, an 8-deposit base mixing both kinds, whole bases,
// the mesh's upper half (d=32 stripes), all 64, and random sets.
func TestAllReduceSharedAndZerosMatchExplicitZeros(t *testing.T) {
	sets := []struct {
		name  string
		zeros uint64
	}{
		{"none", 0},
		{"mixed-octet", 0xf000},
		{"whole-octets", 0xff<<16 | 0xff<<40},
		{"upper-half", 0xffffffff << 32},
		{"all", ^uint64(0)},
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4; i++ {
		sets = append(sets, struct {
			name  string
			zeros uint64
		}{fmt.Sprintf("random%d", i), rng.Uint64() & rng.Uint64()})
	}
	for i, set := range sets {
		for j, n := range []int{1, 7, 513, 4096} {
			tc := reduceCase{floats: n, rounds: 3, seed: int64(100*i + j), special: true, zeros: set.zeros}
			if set.zeros == 0 {
				tc.counts = n/2 + 1
			}
			t.Run(fmt.Sprintf("%s/%d", set.name, n), func(t *testing.T) {
				want, err := runRounds(tc, (*CPE).AllReduce)
				if err != nil {
					t.Fatalf("AllReduce: %v", err)
				}
				got, err := runRounds(tc, sharedReduce(tc.zeros))
				if err != nil {
					t.Fatalf("shared: %v", err)
				}
				compareOutcomes(t, got, want)
			})
		}
	}
}

func TestAllReduceLengthMismatchReturns(t *testing.T) {
	for _, odd := range []struct {
		name   string
		reduce func(c *CPE) error
	}{
		{"buffer", func(c *CPE) error { return c.AllReduce(make([]float64, 5), nil) }},
		{"zeros", func(c *CPE) error { _, err := c.AllReduceZeros(5); return err }},
	} {
		t.Run(odd.name, func(t *testing.T) { checkMismatchReturns(t, odd.reduce) })
	}
}

// checkMismatchReturns runs a round in which CPE 42 enters through odd
// with 5 floats and every other CPE brings 4, then a well-formed round.
func checkMismatchReturns(t *testing.T, odd func(c *CPE) error) {
	mesh := NewMesh(spec(), nil)
	errs := make([]error, machine.CPEsPerCG)
	clocks := make([]float64, machine.CPEsPerCG)
	after := make([][]float64, machine.CPEsPerCG)
	done := make(chan struct{})
	go func() {
		defer close(done)
		mesh.Run(func(c *CPE) {
			if c.ID() == 42 {
				errs[c.ID()] = odd(c)
			} else {
				errs[c.ID()] = c.AllReduce(make([]float64, 4), nil)
			}
			clocks[c.ID()] = c.Clock().Now()
			// The mesh stays usable for a well-formed round.
			buf := []float64{1}
			if err := c.AllReduce(buf, nil); err != nil {
				t.Errorf("CPE %d after the mismatch: %v", c.ID(), err)
			}
			after[c.ID()] = buf
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Mesh.Run did not return within 10 s of a payload-length mismatch")
	}
	for id, err := range errs {
		if err == nil {
			t.Errorf("CPE %d: mismatched allreduce returned no error", id)
		}
		if clocks[id] != 0 {
			t.Errorf("CPE %d: failed allreduce charged %g s", id, clocks[id])
		}
		if len(after[id]) != 1 || after[id][0] != machine.CPEsPerCG {
			t.Errorf("CPE %d: next round gave %v, want [64]", id, after[id])
		}
	}
}

func TestAllReduceSteadyStateAllocs(t *testing.T) {
	for _, entry := range []struct {
		name   string
		reduce func(c *CPE, buf []float64) error
	}{
		{"AllReduce", func(c *CPE, buf []float64) error { return c.AllReduce(buf, nil) }},
		{"AllReduceShared", func(c *CPE, buf []float64) error {
			_, _, err := c.AllReduceShared(buf, nil)
			return err
		}},
		{"AllReduceZeros/upper-half", func(c *CPE, buf []float64) error {
			if c.ID() >= machine.CPEsPerCG/2 {
				_, err := c.AllReduceZeros(len(buf))
				return err
			}
			_, _, err := c.AllReduceShared(buf, nil)
			return err
		}},
	} {
		t.Run(entry.name, func(t *testing.T) {
			mesh := NewMesh(spec(), nil)
			var before, after runtime.MemStats
			mesh.Run(func(c *CPE) {
				buf := make([]float64, 4096)
				// The warm-up round sizes the rendezvous's scratch;
				// every CPE has allocated its buffer before it
				// completes.
				if err := entry.reduce(c, buf); err != nil {
					t.Errorf("CPE %d: %v", c.ID(), err)
					return
				}
				if c.ID() == 0 {
					runtime.ReadMemStats(&before)
				}
				for i := 0; i < 100; i++ {
					if err := entry.reduce(c, buf); err != nil {
						t.Errorf("CPE %d: %v", c.ID(), err)
						return
					}
				}
			})
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("100 rounds of a 4,096-float allreduce allocated %d bytes, want under 1 MB", got)
			}
		})
	}
}
