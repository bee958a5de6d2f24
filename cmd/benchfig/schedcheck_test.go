package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestAssertSameRunComparesRecovery: the gate's two fault runs must
// agree on the recovery report bit for bit, not only on centroids,
// iteration times and exports.
func TestAssertSameRunComparesRecovery(t *testing.T) {
	mk := func(rec *core.Recovery) schedRun {
		return schedRun{res: &core.Result{
			Iters: 2, Centroids: []float64{1, 2}, IterTimes: []float64{0.5, 0.25}, Recovery: rec,
		}}
	}
	rec := core.Recovery{Replans: 1, LostRanks: []int{3}, Checkpoints: 2, ReplanSeconds: 1e-6, RedoSeconds: 0.1}
	same := rec
	if err := assertSameRun("fault", mk(&rec), mk(&same)); err != nil {
		t.Fatalf("equal reports rejected: %v", err)
	}
	if err := assertSameRun("clean", mk(nil), mk(nil)); err != nil {
		t.Fatalf("fault-free runs rejected: %v", err)
	}
	lastBit := rec
	lastBit.RedoSeconds = math.Nextafter(rec.RedoSeconds, 1)
	for _, b := range []*core.Recovery{&lastBit, nil} {
		err := assertSameRun("fault", mk(&rec), mk(b))
		if err == nil || !strings.Contains(err.Error(), "recovery reports differ") {
			t.Errorf("against %+v: err = %v, want a recovery mismatch", b, err)
		}
	}
}
