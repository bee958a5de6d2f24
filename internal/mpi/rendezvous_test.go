package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// collCase is one collective under test: run calls it on c, through
// the rendezvous or, with ref set, through the point-to-point
// reference, on the inputs of the rank, and digests what the caller
// keeps: its buffers (written even when the call fails), the returned
// table or communicator, and its tag counter.
type collCase struct {
	name string
	run  func(c *Comm, ref bool, in *rankInput) (string, error)
}

// rankInput is one rank's arguments.
type rankInput struct {
	data []float64
	ints []int64
}

// payloadKinds name the float patterns of the grid: ordinary values
// whose sums depend on the association order, signed zeros and
// infinities with NaNs of two payloads, and values whose sums overflow.
var payloadKinds = []string{"plain", "special", "overflow"}

// payload fills rank r's n floats of the given kind.
func payload(kind string, r, n int) []float64 {
	out := make([]float64, n)
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000001), 1e-310, -2.5}
	for j := range out {
		switch kind {
		case "plain":
			out[j] = float64(r*7+j)*0.37 + 1/float64(r+j+1)
		case "special":
			out[j] = special[(r*3+j*5)%len(special)]
			if (r+j)%3 == 0 {
				out[j] = float64(r - j)
			}
		case "overflow":
			out[j] = math.MaxFloat64 / float64(1+(r+j)%3)
			if (r+2*j)%4 == 0 {
				out[j] = -out[j]
			}
		}
	}
	return out
}

func bitsInts(xs []int64) string { return fmt.Sprint(xs) }

// floatBits renders floats bit for bit, except that every NaN reads
// "NaN": Go leaves the payload of a sum of two NaNs unspecified and the
// compiler commutes float additions, so two compilations of the same
// addition may keep different operands' payloads.
func floatBits(xs []float64) string {
	var b strings.Builder
	for _, x := range xs {
		if math.IsNaN(x) {
			b.WriteString("NaN,")
			continue
		}
		fmt.Fprintf(&b, "%016x,", math.Float64bits(x))
	}
	return b.String()
}

// collCases is the list of collectives under test; pay(r, n) is rank
// r's n floats.
func collCases(pay func(r, n int) []float64) []collCase {
	sum := func(name string, prod, refFn func(*Comm, []float64, []int64) error, nf, ni int) collCase {
		return collCase{name, func(c *Comm, ref bool, in *rankInput) (string, error) {
			in.data = pay(c.Rank(), nf)
			in.ints = make([]int64, ni)
			for j := range in.ints {
				in.ints[j] = int64(c.Rank()*j - 3)
			}
			fn := prod
			if ref {
				fn = refFn
			}
			err := fn(c, in.data, in.ints)
			return fmt.Sprintf("%s%s seq=%d", floatBits(in.data), bitsInts(in.ints), c.seq), err
		}}
	}
	return []collCase{
		{"barrier", func(c *Comm, ref bool, _ *rankInput) (string, error) {
			var err error
			if ref {
				err = refBarrier(c)
			} else {
				err = c.Barrier()
			}
			return fmt.Sprintf("seq=%d", c.seq), err
		}},
		sum("allreduce", (*Comm).AllReduceSum, refAllReduceSum, 5, 2),
		sum("ring", (*Comm).AllReduceSumRing, refAllReduceSumRing, 11, 4),
		{"minpairs", func(c *Comm, ref bool, in *rankInput) (string, error) {
			in.data = pay(c.Rank(), 6)
			in.ints = make([]int64, 6)
			for j := range in.ints {
				in.ints[j] = int64((c.Rank()*3 + j) % 5)
			}
			var err error
			if ref {
				err = refAllReduceMinPairs(c, in.data, in.ints)
			} else {
				err = c.AllReduceMinPairs(in.data, in.ints)
			}
			return fmt.Sprintf("%s%s seq=%d", floatBits(in.data), bitsInts(in.ints), c.seq), err
		}},
		{"bcast", func(c *Comm, ref bool, in *rankInput) (string, error) {
			root := c.Size() / 3
			in.data = []float64{-1, float64(c.Rank()), 0.5}
			in.ints = []int64{int64(-c.Rank())}
			if c.Rank() == root {
				in.data = pay(c.Rank(), 3)
				in.ints = []int64{42}
			}
			var data []float64
			var ints []int64
			var err error
			if ref {
				data, ints, err = refBcast(c, root, in.data, in.ints)
			} else {
				data, ints, err = c.Bcast(root, in.data, in.ints)
			}
			return fmt.Sprintf("%s%s seq=%d", floatBits(data), bitsInts(ints), c.seq), err
		}},
		{"allgather", func(c *Comm, ref bool, _ *rankInput) (string, error) {
			contrib := []int64{int64(c.Rank() * 10), int64(-c.Rank()), 7}
			var all []int64
			var err error
			if ref {
				all, err = refAllGatherInts(c, contrib)
			} else {
				all, err = c.AllGatherInts(contrib)
			}
			return fmt.Sprintf("%v seq=%d", all, c.seq), err
		}},
		{"split", func(c *Comm, ref bool, _ *rankInput) (string, error) {
			var sub *Comm
			var err error
			if ref {
				sub, err = refSplit(c, c.Rank()%3, -c.Rank())
			} else {
				sub, err = c.Split(c.Rank()%3, -c.Rank())
			}
			if err != nil {
				return fmt.Sprintf("seq=%d", c.seq), err
			}
			return fmt.Sprintf("%s seq=%d", commDigest(sub), c.seq), nil
		}},
		rowsCase("rows", pay, 7, 3, mixedRows),
		rowsCase("rows-empty", pay, 5, 2, func(int, int) int { return 0 }),
		// 1,058 rows of 61 are 65,596 dense elements, at the ring's
		// threshold, cut mid-row into 3, 5 or 8 segments.
		rowsCase("rows-ring", pay, 1058, 61, mixedRows),
	}
}

// mixedRows is how many samples rank r adds to row j: rows j%5 == 4
// get none from anybody, rows j%5 == 0 one or two from everybody, the
// rest one from every third rank.
func mixedRows(r, j int) int {
	switch {
	case j%5 == 4:
		return 0
	case j%5 == 0:
		return 1 + (r+j)%2
	case (r+2*j)%3 == 0:
		return 1
	}
	return 0
}

// rowsCase is AllReduceRows on rows-by-width partials whose rank r adds
// samples(r, j) samples to row j, held to the dense reference: the
// samples added from +0 into a dense buffer and summed by the
// algorithm the dense length selects. A member that fails keeps no
// result.
func rowsCase(name string, pay func(r, n int) []float64, rows, width int, samples func(r, j int) int) collCase {
	return collCase{name, func(c *Comm, ref bool, _ *rankInput) (string, error) {
		data := make([]float64, rows*width)
		ints := make([]int64, rows)
		part := NewRowSums(rows, width)
		for j := 0; j < rows; j++ {
			for i := 0; i < samples(c.Rank(), j); i++ {
				x := pay(c.Rank()*rows+j+i*7919, width)
				if !ref {
					part.Add(j, x)
					continue
				}
				for u, v := range x {
					data[j*width+u] += v
				}
				ints[j]++
			}
		}
		var err error
		switch {
		case !ref:
			var sum *RowSums
			if sum, err = c.AllReduceRows(part); err == nil {
				for j := 0; j < rows; j++ {
					if row, n := sum.Row(j); row != nil {
						copy(data[j*width:], row)
						ints[j] = n
					}
				}
			}
		case rowsRing(part, c.Size()):
			err = refAllReduceSumRing(c, data, ints)
		default:
			err = refAllReduceSum(c, data, ints)
		}
		if err != nil {
			return fmt.Sprintf("seq=%d", c.seq), err
		}
		if len(data) > 64 {
			// Too long to print: hash the bits as floatBits reads them.
			h := fnv.New64a()
			var b [8]byte
			for _, v := range data {
				u := math.Float64bits(v)
				if math.IsNaN(v) {
					u = 0x7ff8000000000000
				}
				binary.LittleEndian.PutUint64(b[:], u)
				h.Write(b[:])
			}
			for _, v := range ints {
				binary.LittleEndian.PutUint64(b[:], uint64(v))
				h.Write(b[:])
			}
			return fmt.Sprintf("digest %016x seq=%d", h.Sum64(), c.seq), nil
		}
		return fmt.Sprintf("%s%s seq=%d", floatBits(data), bitsInts(ints), c.seq), nil
	}}
}

// collScenario fixes everything but the implementation: world size,
// driver, fault plan, entry clocks and the rank (if any) whose
// callback fails with an ordinary error before entering.
type collScenario struct {
	size    int
	driver  Driver
	plan    *fault.Plan
	skew    []float64
	abortAt int // -1: nobody aborts
}

// collOutcome is everything a rank or the world can observe of a call.
type collOutcome struct {
	results, errs, spans []string
	clocks               []uint64
	retry                []float64 // each rank's retry seconds
	stats                trace.Snapshot
	failed               []int
}

var errBoom = errors.New("boom")

// errDigest renders an error by type and fields.
func errDigest(err error) string {
	var rf *RankFailure
	var cs *CrashStop
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &rf):
		return fmt.Sprintf("RankFailure rank=%d cg=%d crashed=%016x detected=%016x",
			rf.Rank, rf.CG, math.Float64bits(rf.CrashedAt), math.Float64bits(rf.DetectedAt))
	case errors.As(err, &cs):
		return fmt.Sprintf("CrashStop rank=%d cg=%d at=%016x", cs.Rank, cs.CG, math.Float64bits(cs.At))
	default:
		return fmt.Sprintf("%T %v", err, err)
	}
}

// runColl runs one scenario of cc through the rendezvous or the
// reference on a fresh world.
func runColl(t testing.TB, sc collScenario, cc collCase, ref bool) collOutcome {
	t.Helper()
	stats := trace.NewStats()
	w := MustWorld(machine.MustSpec((sc.size+3)/4), stats, sc.size)
	w.SetDriver(sc.driver)
	if sc.plan != nil {
		w.SetFaults(fault.MustInjector(*sc.plan))
	}
	rec := obs.NewRecorder()
	w.SetObserver(rec)
	out := collOutcome{
		results: make([]string, sc.size),
		errs:    make([]string, sc.size),
		spans:   make([]string, sc.size),
		clocks:  make([]uint64, sc.size),
	}
	_ = w.Run(func(c *Comm) error {
		r := c.Rank()
		c.Clock().AdvanceTo(sc.skew[r])
		if r == sc.abortAt {
			out.errs[r] = errDigest(errBoom)
			return errBoom
		}
		// Two calls in a row: a member that fail-stopped in the first
		// leaves, so the second meets it as absent, crashed and
		// aborted; the survivors carry on as an engine's recovery
		// would.
		res, err := cc.run(c, ref, &rankInput{})
		out.results[r], out.errs[r] = res, errDigest(err)
		if errors.Is(err, ErrCrashed) || errors.Is(err, fault.ErrLinkFailed) {
			return err
		}
		res, err2 := cc.run(c, ref, &rankInput{})
		out.results[r] += " | " + res
		out.errs[r] += " | " + errDigest(err2)
		return errors.Join(err, err2)
	})
	for g := 0; g < sc.size; g++ {
		out.clocks[g] = math.Float64bits(w.clocks[g].Now())
		var b strings.Builder
		for _, s := range w.obsUnits[g].Spans() {
			fmt.Fprintf(&b, "%s[%016x,%016x]%d;", s.Kind, math.Float64bits(s.Start), math.Float64bits(s.End), s.Bytes)
		}
		out.spans[g] = b.String()
	}
	out.retry = w.retrySecs
	out.stats = stats.Snapshot()
	out.failed = w.Failed()
	return out
}

// compareColl reports the first observable difference between the
// rendezvous and the reference. A rank's retry seconds are held to a
// relative 1e-12: the rendezvous adds a call's retry time to the rank's
// in one sum, the reference retry by retry, and the two may round
// differently.
func compareColl(t testing.TB, label string, want, got collOutcome) {
	t.Helper()
	for r := range want.results {
		switch {
		case want.errs[r] != got.errs[r]:
			t.Fatalf("%s: rank %d error\n got %s\nwant %s", label, r, got.errs[r], want.errs[r])
		case want.results[r] != got.results[r]:
			t.Fatalf("%s: rank %d result\n got %s\nwant %s", label, r, got.results[r], want.results[r])
		case want.clocks[r] != got.clocks[r]:
			t.Fatalf("%s: rank %d clock %016x, want %016x", label, r, got.clocks[r], want.clocks[r])
		case want.spans[r] != got.spans[r]:
			t.Fatalf("%s: rank %d spans\n got %s\nwant %s", label, r, got.spans[r], want.spans[r])
		}
	}
	for r, ws := range want.retry {
		if gs := got.retry[r]; math.Abs(ws-gs) > 1e-12*math.Abs(ws) {
			t.Fatalf("%s: rank %d retry seconds %v, want %v", label, r, gs, ws)
		}
	}
	if want.stats != got.stats {
		t.Fatalf("%s: stats\n got %+v\nwant %+v", label, got.stats, want.stats)
	}
	if !slices.Equal(want.failed, got.failed) {
		t.Fatalf("%s: failed ranks %v, want %v", label, got.failed, want.failed)
	}
}

// boundaries returns every rank's clock at each message boundary of a
// fault-free reference run of the scenario: the crash times that stop
// a rank exactly at each of its messages.
func boundaries(t testing.TB, sc collScenario, cc collCase) [][]float64 {
	t.Helper()
	at := make([][]float64, sc.size)
	refHook = func(c *Comm) { at[c.Global()] = append(at[c.Global()], c.Clock().Now()) }
	defer func() { refHook = nil }()
	sc.plan, sc.abortAt = nil, -1
	runColl(t, sc, cc, true)
	return at
}

// skews is the grid's pattern of entry clocks: uneven, with ties.
func skews(size int) []float64 {
	out := make([]float64, size)
	for r := range out {
		out[r] = float64((r*37)%11) * 1e-6
	}
	return out
}

// TestCollectivesMatchPointToPoint holds every collective's rendezvous
// to the point-to-point reference it replaced, under both drivers, at
// sizes 1 to 128 with uneven entry clocks and ordinary, special and
// overflowing payloads, fault-free and under fault plans: a member
// crashed before entry, a crash at every message boundary of the call,
// transient message faults with retries, exhausted retries, a
// degraded-link window opening mid-call, and an ordinary-error abort.
// Every rank's buffers, result, clock bits, spans and error, the
// traffic counters and the failed set must be equal. AllReduceRows is
// held to the dense allreduce its dense length selects, below the
// ring's threshold at every size and above it up to 8 ranks, on rows
// that no member, some members and every member touched.
func TestCollectivesMatchPointToPoint(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 33, 128}
	if testing.Short() {
		sizes = []int{1, 2, 3, 5, 8}
	}
	for _, size := range sizes {
		victims := slices.Compact([]int{0, size / 2, size - 1})
		for _, d := range []Driver{DriverGoroutine, DriverSched} {
			for _, kind := range payloadKinds {
				pay := func(r, n int) []float64 { return payload(kind, r, n) }
				for _, cc := range collCases(pay) {
					if kind != "plain" && (cc.name == "barrier" || cc.name == "allgather" || cc.name == "split") {
						continue
					}
					// The ring-sized row allreduce moves 65,596 elements
					// per rank: up to 8 ranks, and four crash boundaries
					// per victim.
					heavy := cc.name == "rows-ring"
					if heavy && size > 8 {
						continue
					}
					base := collScenario{size: size, driver: d, skew: skews(size), abortAt: -1}
					name := fmt.Sprintf("%d/%s/%s/%s", size, d, cc.name, kind)
					t.Run(name, func(t *testing.T) {
						check := func(label string, sc collScenario) {
							t.Helper()
							compareColl(t, label, runColl(t, sc, cc, true), runColl(t, sc, cc, false))
						}
						check("no faults", base)
						if kind != "plain" {
							return
						}
						end := 0.0
						for _, b := range boundaries(t, base, cc) {
							for _, v := range b {
								end = math.Max(end, v)
							}
						}
						plans := map[string]fault.Plan{
							"msg=0.2":   {Seed: uint64(size) + 3, MsgFailRate: 0.2, MaxRetries: 64},
							"exhausted": {Seed: uint64(size) + 5, MsgFailRate: 0.45, MaxRetries: 1},
							"degraded":  {Links: []fault.LinkDegrade{{FromCG: -1, ToCG: -1, From: end / 2, To: 1, Factor: 7}}},
							"degraded+msg": {Seed: uint64(size) + 7, MsgFailRate: 0.3, MaxRetries: 64,
								Links: []fault.LinkDegrade{{FromCG: -1, ToCG: -1, From: end / 3, To: 1, Factor: 5}}},
							"crash-at-entry": {Crashes: []fault.Crash{{CG: victims[len(victims)-1], At: 0}}},
						}
						for _, label := range []string{"msg=0.2", "exhausted", "degraded", "degraded+msg", "crash-at-entry"} {
							p := plans[label]
							sc := base
							sc.plan = &p
							check(label, sc)
						}
						for _, v := range victims {
							sc := base
							sc.abortAt = v
							check(fmt.Sprintf("abort rank %d", v), sc)
						}
						bs := boundaries(t, base, cc)
						for _, v := range victims {
							times := bs[v]
							if (size > 8 || heavy) && len(times) > 4 {
								times = []float64{times[0], times[1], times[len(times)/2], times[len(times)-1]}
							}
							for i, at := range times {
								for _, crash := range []float64{at, math.Nextafter(at, math.Inf(1))} {
									sc := base
									sc.plan = &fault.Plan{Crashes: []fault.Crash{{CG: v, At: crash}}, HeartbeatTimeout: 3e-6 * float64(i+1)}
									check(fmt.Sprintf("rank %d crashes at %g (boundary %d)", v, crash, i), sc)
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestCollectiveMismatchErrorsEveryMember: members that disagree on
// the payload length or on the collective itself all return an error,
// and nothing is charged: no clock, no traffic, no tags, so the next
// agreed collective runs as if the bad one never happened.
func TestCollectiveMismatchErrorsEveryMember(t *testing.T) {
	for _, d := range []Driver{DriverGoroutine, DriverSched} {
		for _, bad := range []string{"length", "algorithm"} {
			stats := trace.NewStats()
			w := MustWorld(machine.MustSpec(2), stats, 5)
			w.SetDriver(d)
			errs := make([]error, 5)
			seqs := make([]uint64, 5)
			clocks := make([]float64, 5)
			err := w.Run(func(c *Comm) error {
				c.Clock().AdvanceTo(float64(c.Rank()) * 1e-6)
				data := make([]float64, 4)
				switch {
				case c.Rank() != 2:
					errs[c.Rank()] = c.AllReduceSum(data, nil)
				case bad == "length":
					errs[c.Rank()] = c.AllReduceSum(data[:3], nil)
				default:
					errs[c.Rank()] = c.Barrier()
				}
				seqs[c.Rank()], clocks[c.Rank()] = c.seq, c.Clock().Now()
				return c.Barrier()
			})
			if err != nil {
				t.Fatalf("%s/%s: the barrier after the mismatch failed: %v", d, bad, err)
			}
			for r, e := range errs {
				if e == nil || !strings.Contains(e.Error(), "collective mismatch") {
					t.Errorf("%s/%s: rank %d returned %v, want the mismatch", d, bad, r, e)
				}
				if seqs[r] != 0 || clocks[r] != float64(r)*1e-6 {
					t.Errorf("%s/%s: rank %d charged: seq %d, clock %g", d, bad, r, seqs[r], clocks[r])
				}
			}
			if snap := stats.Snapshot(); snap.NetMessages != 5*3 {
				t.Errorf("%s/%s: %d messages, want only the barrier's 15", d, bad, snap.NetMessages)
			}
		}
	}
}

// FuzzCollectives decodes a world of 1 to 9 ranks, a driver, a
// collective, payload bits, entry clocks, a rank that aborts and a
// fault plan (seed, message fault rate and retry budget, the
// heartbeat, one crash and one degraded-link window) from the input,
// and holds the rendezvous to the point-to-point reference on it.
func FuzzCollectives(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{8, 1, 2, 7, 9, 60, 3, 2, 0, 1, 5, 3, 40, 255, 17, 0xff, 0xf8, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{2, 1, 6, 3, 3, 100, 1, 1, 1, 0, 0, 0, 3, 1, 255, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{9, 0, 3, 1, 2, 30, 4, 5, 2, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{6, 1, 7, 0, 9, 40, 2, 3, 1, 5, 0, 0, 255, 1, 2, 3, 4, 5, 0x80, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 0, 1, 2})
	f.Add([]byte{4, 1, 9, 2, 7, 20, 3, 4, 2, 2, 9, 3, 2, 255, 0, 1, 3, 5, 7})
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		size := 1 + int(next())%9
		driver := Driver(next() & 1)
		which := int(next())
		plan := &fault.Plan{Seed: uint64(next())<<8 | uint64(next())}
		plan.MsgFailRate = float64(next()%128) / 256
		plan.MaxRetries = 1 + int(next())%6
		plan.HeartbeatTimeout = 1e-6 * float64(1+next())
		if cg, at := next(), next(); at != 255 {
			plan.Crashes = []fault.Crash{{CG: int(cg) % size, At: float64(at) * 1e-7}}
		}
		if from, factor := next(), next(); factor > 1 {
			plan.Links = []fault.LinkDegrade{{FromCG: -1, ToCG: -1, From: float64(from) * 1e-7, To: 1, Factor: float64(factor)}}
		}
		abortAt := int(next())
		if abortAt >= size {
			abortAt = -1
		}
		skew := make([]float64, size)
		for r := range skew {
			skew[r] = float64(next()%16) * 1e-6
		}
		bits := append([]byte(nil), in...)
		pay := func(r, n int) []float64 {
			out := make([]float64, n)
			for j := range out {
				var u uint64
				for k := 0; k < 8; k++ {
					if len(bits) > 0 {
						u |= uint64(bits[(r*n*8+j*8+k)%len(bits)]) << (8 * k)
					}
				}
				out[j] = math.Float64frombits(u ^ uint64(r*0x9e3779b9+j))
			}
			return out
		}
		cases := collCases(pay)
		cc := cases[which%len(cases)]
		sc := collScenario{size: size, driver: driver, plan: plan, skew: skew, abortAt: abortAt}
		compareColl(t, fmt.Sprintf("%+v %s", sc, cc.name), runColl(t, sc, cc, true), runColl(t, sc, cc, false))
	})
}
