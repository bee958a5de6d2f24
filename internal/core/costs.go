package core

import (
	"repro/internal/costmodel"
	"repro/internal/ldm"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// straggle stretches the compute term of a rank's per-iteration cost by
// its CG's straggler factor, exactly 1 without one (fault.Injector.
// ComputeFactor). Fault-free runs have no injector and keep the cost.
func straggle(ic costmodel.Cost, work *mpi.Comm, env *epochEnv) costmodel.Cost {
	if env.inj != nil {
		ic.ComputeSeconds *= env.inj.ComputeFactor(work.CG())
	}
	return ic
}

// chargeCost applies a local per-iteration cost to a rank's clock and
// trace counters, and records the cost's phase triple — DMA read,
// compute, register communication — as consecutive spans on the
// rank's observability unit (a nil unit records nothing).
func chargeCost(c costmodel.Cost, clock *vclock.Clock, stats *trace.Stats, u *obs.Unit) {
	start := clock.Now()
	clock.Advance(c.Seconds())
	stats.AddDMA(c.DMAElems * ldm.ElemBytes)
	stats.AddReg(c.RegElems * ldm.ElemBytes)
	stats.AddFlops(c.Flops)
	u.RecordCost(start, c.ReadSeconds, c.ComputeSeconds, c.RegSeconds,
		c.DMAElems*ldm.ElemBytes, c.RegElems*ldm.ElemBytes, c.Flops)
}

// chargeTransientDMA folds one iteration's chunked DMA stream through
// the fault injector and charges the retries to the rank's clock and
// its retry time. at is the rank's clock at iteration start, so
// identical fault plans reproduce identical retry timelines. Fault-free
// runs have no injector and take the zero path.
func chargeTransientDMA(work *mpi.Comm, env *epochEnv, ic costmodel.Cost, at float64) {
	if env.inj == nil {
		return
	}
	transfers := int((ic.DMAElems + costmodel.DMAChunkElems - 1) / costmodel.DMAChunkElems)
	retries := env.inj.DMARetryCount(work.CG(), at, costmodel.DMAChunkElems, transfers)
	if retries <= 0 {
		return
	}
	cost := float64(retries) * (env.chunkSeconds + env.inj.Backoff(1))
	work.AddRetrySeconds(cost)
	t0 := work.Clock().Now()
	work.Clock().Advance(cost)
	work.Obs().Record(obs.KindDMA, t0, work.Clock().Now(), 0, 0)
}
