package mpi

import (
	"errors"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/trace"
)

func faultyWorld(t *testing.T, nodes, size int, p fault.Plan) *World {
	t.Helper()
	w := world(t, nodes, size)
	w.SetFaults(fault.MustInjector(p))
	return w
}

// TestRecvFromCrashedRankReturnsTypedError: a receive posted against a
// crashed rank must complete with ErrRankFailed at crash time plus the
// heartbeat timeout instead of deadlocking.
func TestRecvFromCrashedRankReturnsTypedError(t *testing.T) {
	const hb = 1e-3
	w := faultyWorld(t, 1, 2, fault.Plan{
		Crashes:          []fault.Crash{{CG: 1, At: 0}},
		HeartbeatTimeout: hb,
	})
	var recvErr error
	var detectedAt float64
	runErr := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return c.Send(0, 7, []float64{1}, nil)
		}
		_, _, err := c.Recv(1, 7)
		recvErr = err
		detectedAt = c.Clock().Now()
		return err
	})
	if runErr == nil {
		t.Fatal("run with a crashed rank returned nil")
	}
	if !errors.Is(recvErr, ErrRankFailed) {
		t.Fatalf("Recv error = %v, want ErrRankFailed", recvErr)
	}
	var rf *RankFailure
	if !errors.As(recvErr, &rf) || rf.Rank != 1 || rf.CrashedAt != 0 || rf.DetectedAt != hb {
		t.Fatalf("failure detail = %+v", rf)
	}
	if detectedAt != hb {
		t.Errorf("receiver clock = %v, want the detection time %v", detectedAt, hb)
	}
	if failed := w.Failed(); len(failed) != 1 || failed[0] != 1 {
		t.Errorf("Failed() = %v, want [1]", failed)
	}
	if alive := w.Alive(); len(alive) != 1 || alive[0] != 0 {
		t.Errorf("Alive() = %v, want [0]", alive)
	}
}

// TestMessagesSentBeforeCrashAreDelivered: a message the dead rank got
// out before its fail-stop must win over the failure report — whether
// a receive sees data or a failure is decided by virtual times, not by
// goroutine scheduling.
func TestMessagesSentBeforeCrashAreDelivered(t *testing.T) {
	w := faultyWorld(t, 1, 2, fault.Plan{
		Crashes: []fault.Crash{{CG: 1, At: 1e-3}},
	})
	errs := make([]error, 2)
	_ = w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			if err := c.Send(0, 7, []float64{42}, nil); err != nil {
				return err
			}
			c.Clock().Advance(2e-3) // cross the crash time, then fail-stop
			err := c.Send(0, 8, []float64{43}, nil)
			errs[1] = err
			return err
		}
		d, _, err := c.Recv(1, 7)
		if err != nil || len(d) != 1 || d[0] != 42 {
			t.Errorf("pre-crash message: d=%v err=%v", d, err)
		}
		_, _, err = c.Recv(1, 8)
		errs[0] = err
		return err
	})
	if !errors.Is(errs[0], ErrRankFailed) {
		t.Errorf("post-crash Recv error = %v, want ErrRankFailed", errs[0])
	}
	if !errors.Is(errs[1], ErrCrashed) {
		t.Errorf("self-crash error = %v, want ErrCrashed", errs[1])
	}
	var cs *CrashStop
	if !errors.As(errs[1], &cs) || cs.Rank != 1 || cs.At != 1e-3 {
		t.Errorf("crash detail = %+v", cs)
	}
}

// TestMidCollectiveFailurePropagatesToAll: when a rank dies mid-job,
// every survivor must come out of the collective with the same typed
// failure — no deadlock, no partial knowledge — for each collective
// the engines use. Run with -race: this is the concurrency stress for
// the poison/abort machinery.
func TestMidCollectiveFailurePropagatesToAll(t *testing.T) {
	const size = 8
	const dead = 3
	collectives := map[string]func(c *Comm) error{
		"barrier": func(c *Comm) error { return c.Barrier() },
		"allreduce": func(c *Comm) error {
			return c.AllReduceSum(make([]float64, 4), nil)
		},
		"allreduce-ring": func(c *Comm) error {
			return c.AllReduceSumRing(make([]float64, 64), nil)
		},
		"minpairs": func(c *Comm) error {
			return c.AllReduceMinPairs(make([]float64, 3), make([]int64, 3))
		},
		"split": func(c *Comm) error {
			_, err := c.Split(c.Rank()%2, c.Rank())
			return err
		},
	}
	for name, op := range collectives {
		t.Run(name, func(t *testing.T) {
			w := faultyWorld(t, 2, size, fault.Plan{
				Crashes: []fault.Crash{{CG: dead, At: 0}},
			})
			errs := make([]error, size)
			_ = w.Run(func(c *Comm) error {
				err := op(c)
				errs[c.Rank()] = err
				return err
			})
			for r, err := range errs {
				if r == dead {
					if !errors.Is(err, ErrCrashed) {
						t.Errorf("dead rank error = %v, want ErrCrashed", err)
					}
					continue
				}
				var rf *RankFailure
				if !errors.As(err, &rf) {
					t.Fatalf("rank %d error = %v, want *RankFailure", r, err)
				}
				if rf.Rank != dead {
					t.Errorf("rank %d blames rank %d, want %d", r, rf.Rank, dead)
				}
			}
		})
	}
}

// TestAbortCascadePreventsDeadlock: a rank whose callback fails with
// an ordinary error (not a crash) must not strand peers waiting on it.
func TestAbortCascadePreventsDeadlock(t *testing.T) {
	w := world(t, 1, 2) // no fault injector at all
	errBoom := errors.New("boom")
	var peerErr error
	runErr := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return errBoom
		}
		_, _, err := c.Recv(1, 7)
		peerErr = err
		return err
	})
	if !errors.Is(peerErr, ErrRankFailed) {
		t.Errorf("peer error = %v, want ErrRankFailed", peerErr)
	}
	if !errors.Is(runErr, ErrRankFailed) && !errors.Is(runErr, errBoom) {
		t.Errorf("run error = %v", runErr)
	}
}

// TestRunLiveAfterCrash: after a crash the surviving ranks form a
// working communicator — collectives and Split (the re-planning
// primitive) run over exactly the live ranks.
func TestRunLiveAfterCrash(t *testing.T) {
	const size = 4
	w := faultyWorld(t, 1, size, fault.Plan{
		Crashes: []fault.Crash{{CG: 2, At: 0}},
	})
	_ = w.Run(func(c *Comm) error { return c.Barrier() })
	if failed := w.Failed(); len(failed) != 1 || failed[0] != 2 {
		t.Fatalf("Failed() = %v, want [2]", failed)
	}
	sum := make([]float64, size)
	err := w.RunLive(func(c *Comm) error {
		if c.Size() != size-1 {
			t.Errorf("live communicator size = %d, want %d", c.Size(), size-1)
		}
		contrib := make([]float64, size)
		contrib[c.Global()] = 1
		if err := c.AllReduceSum(contrib, nil); err != nil {
			return err
		}
		if c.Rank() == 0 {
			copy(sum, contrib)
		}
		sub, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != size-1 || sub.Rank() != c.Rank() {
			t.Errorf("split over live ranks: size=%d rank=%d", sub.Size(), sub.Rank())
		}
		return sub.Barrier()
	})
	if err != nil {
		t.Fatalf("RunLive: %v", err)
	}
	want := []float64{1, 1, 0, 1} // rank 2 is dead, everyone else contributed
	for g, v := range sum {
		if v != want[g] {
			t.Fatalf("live allreduce = %v, want %v", sum, want)
		}
	}
}

// TestTransientMsgFaultsAreDeterministic: identical plans reproduce
// byte-identical virtual timelines and traffic, and the retries both
// show up in the world's retry seconds and slow the job down.
func TestTransientMsgFaultsAreDeterministic(t *testing.T) {
	run := func(rate float64) (float64, float64, trace.Snapshot) {
		stats := trace.NewStats()
		w, err := NewWorld(machine.MustSpec(2), stats, 6)
		if err != nil {
			t.Fatal(err)
		}
		w.SetFaults(fault.MustInjector(fault.Plan{Seed: 13, MsgFailRate: rate, MaxRetries: 64}))
		for round := 0; round < 3; round++ {
			if err := w.Run(func(c *Comm) error {
				data := []float64{float64(c.Rank())}
				if err := c.AllReduceSum(data, nil); err != nil {
					return err
				}
				return c.Barrier()
			}); err != nil {
				t.Fatal(err)
			}
		}
		return w.MaxTime(), w.RetrySeconds(), stats.Snapshot()
	}
	t1, r1, s1 := run(0.2)
	t2, r2, s2 := run(0.2)
	if math.Float64bits(t1) != math.Float64bits(t2) {
		t.Fatalf("identical faulty runs diverged: %.17g vs %.17g", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("traffic diverged: %+v vs %+v", s1, s2)
	}
	if r1 <= 0 || math.Float64bits(r1) != math.Float64bits(r2) {
		t.Errorf("retry seconds = %v vs %v, want equal and positive", r1, r2)
	}
	clean, _, _ := run(0)
	if t1 <= clean {
		t.Errorf("faulty run %.9g not slower than clean run %.9g", t1, clean)
	}
}

// TestDegradedLinkSlowsTransfers: a degradation window stretches
// message time inside the window and leaves it unchanged outside.
func TestDegradedLinkSlowsTransfers(t *testing.T) {
	run := func(p fault.Plan, startAt float64) float64 {
		w := world(t, 1, 2)
		if !p.Empty() {
			w.SetFaults(fault.MustInjector(p))
		}
		if err := w.Run(func(c *Comm) error {
			c.Clock().AdvanceTo(startAt)
			if c.Rank() == 0 {
				return c.Send(1, 3, make([]float64, 1<<16), nil)
			}
			_, _, err := c.Recv(0, 3)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return w.MaxTime() - startAt
	}
	slowPlan := fault.Plan{Links: []fault.LinkDegrade{{FromCG: -1, ToCG: -1, From: 0, To: 1, Factor: 8}}}
	clean := run(fault.Plan{}, 0)
	inWindow := run(slowPlan, 0)
	pastWindow := run(slowPlan, 2)
	if inWindow <= clean {
		t.Errorf("degraded transfer %.9g not slower than clean %.9g", inWindow, clean)
	}
	if math.Abs(pastWindow-clean) > 1e-15 {
		t.Errorf("transfer after the window = %.9g, want the clean %.9g", pastWindow, clean)
	}
}
