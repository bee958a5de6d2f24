package mpi

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/trace"
)

// worldDigest captures everything a driver can influence: every rank's
// final clock (as exact bit patterns), the per-rank payload digests a
// scenario records, the run error text, and the failed-rank set.
type worldDigest struct {
	clocks   []uint64
	payloads []string
	runErr   string
	failed   []int
}

// runScenario executes one scenario under the given driver on a fresh
// world and digests the outcome. The scenario writes each rank's
// payload digest into out[rank].
func runScenario(t *testing.T, d Driver, nodes, size int, plan *fault.Plan,
	scenario func(w *World, out []string) error) worldDigest {
	t.Helper()
	w := world(t, nodes, size)
	w.SetDriver(d)
	if plan != nil {
		w.SetFaults(fault.MustInjector(*plan))
	}
	out := make([]string, size)
	dig := worldDigest{payloads: out}
	if err := scenario(w, out); err != nil {
		dig.runErr = err.Error()
	}
	for g := 0; g < size; g++ {
		dig.clocks = append(dig.clocks, math.Float64bits(w.clocks[g].Now()))
	}
	dig.failed = w.Failed()
	return dig
}

// assertDigestsEqual compares two drivers' digests bit for bit.
func assertDigestsEqual(t *testing.T, goroutine, sched worldDigest) {
	t.Helper()
	if goroutine.runErr != sched.runErr {
		t.Fatalf("run error diverged:\n goroutine: %q\n sched:     %q", goroutine.runErr, sched.runErr)
	}
	if fmt.Sprint(goroutine.failed) != fmt.Sprint(sched.failed) {
		t.Fatalf("failed set diverged: goroutine %v, sched %v", goroutine.failed, sched.failed)
	}
	for g := range goroutine.clocks {
		if goroutine.clocks[g] != sched.clocks[g] {
			t.Fatalf("rank %d clock diverged: goroutine bits %016x, sched bits %016x",
				g, goroutine.clocks[g], sched.clocks[g])
		}
	}
	for g := range goroutine.payloads {
		if goroutine.payloads[g] != sched.payloads[g] {
			t.Fatalf("rank %d payload diverged:\n goroutine: %s\n sched:     %s",
				g, goroutine.payloads[g], sched.payloads[g])
		}
	}
}

func bitsOf(xs []float64) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, "%016x,", math.Float64bits(x))
	}
	return b.String()
}

func intsOf(xs []int64) string { return fmt.Sprint(xs) }

// TestDriverParityCollectives runs a workload exercising every
// collective family — allreduce (tree and ring), min-pairs, barrier,
// bcast, row allreduce, split with sub-communicator
// collectives, and tagged point-to-point — and requires bit-identical
// payloads and clocks across the goroutine and DES drivers.
func TestDriverParityCollectives(t *testing.T) {
	const size = 8
	scenario := func(w *World, out []string) error {
		return w.Run(func(c *Comm) error {
			r := c.Rank()
			var b strings.Builder

			sum := []float64{float64(r) + 0.25, float64(r * r)}
			cnt := []int64{int64(r), 1}
			if err := c.AllReduceSum(sum, cnt); err != nil {
				return err
			}
			fmt.Fprintf(&b, "sum=%s%s;", bitsOf(sum), intsOf(cnt))

			ring := []float64{1.0 / float64(r+1), float64(r)}
			if err := c.AllReduceSumRing(ring, nil); err != nil {
				return err
			}
			fmt.Fprintf(&b, "ring=%s;", bitsOf(ring))

			vals := []float64{float64((r * 5) % 7), float64(r % 3)}
			idxs := []int64{int64(r), int64(size - r)}
			if err := c.AllReduceMinPairs(vals, idxs); err != nil {
				return err
			}
			fmt.Fprintf(&b, "min=%s%s;", bitsOf(vals), intsOf(idxs))

			var data []float64
			if r == 2 {
				data = []float64{3.5, -1.25, 42}
			}
			data, _, err := c.Bcast(2, data, nil)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "bcast=%s;", bitsOf(data))

			part := NewRowSums(3, 2)
			part.Add(r%3, []float64{float64(r) + 0.5, -float64(r)})
			rows, err := c.AllReduceRows(part)
			if err != nil {
				return err
			}
			for j := 0; j < rows.Rows(); j++ {
				row, cnt := rows.Row(j)
				fmt.Fprintf(&b, "rows%d=%s%d;", j, bitsOf(row), cnt)
			}

			// Tagged point-to-point ring with out-of-order tags: rank r
			// sends two messages to (r+1)%size and receives from the left
			// neighbour in the opposite tag order, exercising the held
			// buffer in both drivers.
			right, left := (c.Rank()+1)%size, (c.Rank()-1+size)%size
			if err := c.Send(right, 100, []float64{float64(r)}, nil); err != nil {
				return err
			}
			if err := c.Send(right, 101, []float64{float64(r) * 2}, nil); err != nil {
				return err
			}
			d1, _, err := c.Recv(left, 101)
			if err != nil {
				return err
			}
			d0, _, err := c.Recv(left, 100)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "p2p=%s%s;", bitsOf(d0), bitsOf(d1))

			// Split into halves; sub-communicator collectives, then a
			// world barrier over everything.
			sub, err := c.Split(r%2, r)
			if err != nil {
				return err
			}
			subSum := []float64{float64(r) + 0.125}
			if err := sub.AllReduceSum(subSum, nil); err != nil {
				return err
			}
			fmt.Fprintf(&b, "sub=%s;", bitsOf(subSum))
			if err := sub.Barrier(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			fmt.Fprintf(&b, "t=%016x", math.Float64bits(c.Clock().Now()))
			out[c.Global()] = b.String()
			return nil
		})
	}
	g := runScenario(t, DriverGoroutine, 2, size, nil, scenario)
	s := runScenario(t, DriverSched, 2, size, nil, scenario)
	assertDigestsEqual(t, g, s)
	for r := 0; r < size; r++ {
		if g.payloads[r] == "" {
			t.Fatalf("rank %d recorded no payload", r)
		}
	}
}

// TestDriverParityCrashRecovery injects a crash mid-workload and
// checks that failure detection, the abort cascade, the surviving
// RunLive epoch and every clock agree across drivers bit for bit.
func TestDriverParityCrashRecovery(t *testing.T) {
	const size = 6
	plan := &fault.Plan{
		Crashes:          []fault.Crash{{CG: 2, At: 1e-5}},
		HeartbeatTimeout: 5e-4,
	}
	scenario := func(w *World, out []string) error {
		err := w.Run(func(c *Comm) error {
			for iter := 0; ; iter++ {
				data := []float64{float64(c.Rank()*iter) + 0.5}
				if err := c.AllReduceSum(data, nil); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
		})
		if err == nil {
			return errors.New("crash epoch unexpectedly succeeded")
		}
		// Recovery epoch over the survivors: same deterministic outcome
		// expected from both drivers.
		liveErr := w.RunLive(func(c *Comm) error {
			data := []float64{float64(c.Global()) + 0.75}
			if err := c.AllReduceSum(data, nil); err != nil {
				return err
			}
			out[c.Global()] = fmt.Sprintf("live=%s t=%016x", bitsOf(data), math.Float64bits(c.Clock().Now()))
			return nil
		})
		if liveErr != nil {
			return fmt.Errorf("recovery epoch: %w (first epoch: %v)", liveErr, err)
		}
		return err
	}
	g := runScenario(t, DriverGoroutine, 2, size, plan, scenario)
	s := runScenario(t, DriverSched, 2, size, plan, scenario)
	if g.runErr == "" || !strings.Contains(g.runErr, "fail-stop") && !strings.Contains(g.runErr, "failed") {
		t.Fatalf("goroutine run error %q does not report the crash", g.runErr)
	}
	assertDigestsEqual(t, g, s)
	if len(s.failed) != 1 || s.failed[0] != 2 {
		t.Fatalf("failed set %v, want [2]", s.failed)
	}
}

// TestDriverParityTransientFaults drives retries, backoff and degraded
// links through both drivers: the injected fault decisions are pure
// functions of (link, tag, virtual time, attempt), so the clocks must
// agree exactly.
func TestDriverParityTransientFaults(t *testing.T) {
	const size = 4
	plan := &fault.Plan{
		Seed:        99,
		MsgFailRate: 0.2,
		MaxRetries:  64,
		Links: []fault.LinkDegrade{
			{FromCG: -1, ToCG: -1, From: 0, To: 1, Factor: 3},
		},
	}
	scenario := func(w *World, out []string) error {
		return w.Run(func(c *Comm) error {
			for iter := 0; iter < 5; iter++ {
				data := []float64{float64(c.Rank()) + 0.5, float64(iter)}
				if err := c.AllReduceSum(data, nil); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if iter == 2 {
					out[c.Global()] = fmt.Sprintf("i2=%s", bitsOf(data))
				}
			}
			return nil
		})
	}
	g := runScenario(t, DriverGoroutine, 1, size, plan, scenario)
	s := runScenario(t, DriverSched, 1, size, plan, scenario)
	assertDigestsEqual(t, g, s)
}

// TestSchedDeadlockDiagnostic: a protocol bug that would hang the
// goroutine driver forever (a receive nobody answers) surfaces as the
// scheduler's deadlock diagnostic under the DES driver.
func TestSchedDeadlockDiagnostic(t *testing.T) {
	w := world(t, 1, 2)
	w.SetDriver(DriverSched)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			_, _, err := c.Recv(1, 7) // rank 1 never sends
			return err
		}
		return nil
	})
	if err == nil {
		t.Fatal("mismatched receive returned nil")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("error %q is not the scheduler's deadlock diagnostic", err)
	}
}

// TestSchedLargeWorld is the scale smoke: a 4,096-rank world (the
// paper's full 1,024-node deployment) runs a barrier and a tree
// allreduce in-process under the DES driver.
func TestSchedLargeWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("4,096-rank world in -short mode")
	}
	spec := machine.MustSpec(1024)
	w, err := NewWorld(spec, trace.NewStats(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	w.SetDriver(DriverSched)
	var sum float64
	err = w.Run(func(c *Comm) error {
		data := []float64{1}
		if err := c.AllReduceSum(data, nil); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			sum = data[0]
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 4096 {
		t.Fatalf("allreduce over 4096 ranks = %v", sum)
	}
	if w.MaxTime() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

// TestSchedDeterministicAcrossRuns: two fresh DES runs of the same
// seeded faulty scenario produce bit-identical clocks and outcomes.
func TestSchedDeterministicAcrossRuns(t *testing.T) {
	plan := &fault.Plan{
		Seed:        7,
		MsgFailRate: 0.1,
		MaxRetries:  64,
		Crashes:     []fault.Crash{{CG: 3, At: 2e-5}},
	}
	scenario := func(w *World, out []string) error {
		return w.Run(func(c *Comm) error {
			for iter := 0; iter < 8; iter++ {
				data := []float64{float64(c.Rank()) * 1.25}
				if err := c.AllReduceSum(data, nil); err != nil {
					return err
				}
			}
			return nil
		})
	}
	a := runScenario(t, DriverSched, 2, 6, plan, scenario)
	b := runScenario(t, DriverSched, 2, 6, plan, scenario)
	assertDigestsEqual(t, a, b)
}
