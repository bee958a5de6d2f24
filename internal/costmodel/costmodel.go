// Package costmodel provides the closed-form per-core-group cost of
// one k-means iteration at each partition level. It is the single
// source of truth shared by the functional engines (which charge these
// local costs on the virtual clocks and execute the inter-CG
// collectives for real) and by the analytic performance model (which
// adds closed-form network terms to predict paper-scale figures the
// host cannot execute).
//
// The formulas follow the analysis paragraphs of Section III, refined
// with two implementation realities the published operating envelopes
// imply:
//
//   - DMA transfers are chunk-streamed (8 KB double-buffered), so the
//     startup latency amortizes over a chunk, not a sample.
//   - When the centroid working set exceeds its LDM residency budget,
//     it lives in the CG's DRAM share and is re-streamed through LDM
//     once per resident sample batch; the re-stream overlaps compute
//     on the second DMA channel at RestreamOverlap efficiency. This
//     term is what makes Level 2 degrade quadratically with d in
//     Figure 7 and lets a tiled Level 3 run at node counts below full
//     residency, as Figure 9 does.
package costmodel

import (
	"repro/internal/ldm"
	"repro/internal/machine"
	"repro/internal/regcomm"
)

// DMAChunkElems is the streaming buffer size assumed for batched DMA
// (8 KB, double-buffered, per CPE).
const DMAChunkElems = 2048

// RestreamOverlap is the fraction of centroid re-stream DMA time that
// is not hidden behind compute. The value is calibrated so that the
// Level-2/Level-3 crossover of Figure 7 falls where the paper reports
// it (around d = 2,560 at k = 2,000 on 128 nodes).
const RestreamOverlap = 0.25

// Cost is the local per-iteration cost of one core group.
type Cost struct {
	// ReadSeconds is DMA time: sample streaming, centroid loading and
	// any centroid re-streaming.
	ReadSeconds float64
	// ComputeSeconds is the per-CPE critical-path kernel time.
	ComputeSeconds float64
	// RegSeconds is register-communication time on the CPE mesh.
	RegSeconds float64
	// DMAElems, RegElems and Flops are the charged volumes.
	DMAElems int64
	RegElems int64
	Flops    int64
}

// Seconds returns the total local critical-path time.
func (c Cost) Seconds() float64 { return c.ReadSeconds + c.ComputeSeconds + c.RegSeconds }

// DMAIssueSeconds is the per-chunk issue overhead of an asynchronous
// DMA request (~20 CPE cycles); with double buffering the full startup
// latency is paid once per stream, not per chunk.
const DMAIssueSeconds = 20 / machine.CPEClockHz

// dmaSeconds models a pipelined, chunk-streamed DMA of elems elements
// on one CG: one pipeline-fill latency, a small issue overhead per
// chunk, and the bandwidth term.
func dmaSeconds(spec *machine.Spec, elems int64) float64 {
	if elems <= 0 {
		return 0
	}
	transfers := float64((elems + DMAChunkElems - 1) / DMAChunkElems)
	return spec.BW.DMALatency + transfers*DMAIssueSeconds +
		float64(elems*ldm.ElemBytes)/spec.BW.DMA
}

// log2Ceil returns ceil(log2(n)) for n >= 1.
func log2Ceil(n int) int {
	s := 0
	for (1 << s) < n {
		s++
	}
	return s
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Level1 models Algorithm 1 on one CG owning nLocal samples: every
// CPE streams its share of the samples and holds all k centroids
// resident (guaranteed by constraint C1), and the 64 partial sum sets
// meet in a register allreduce.
func Level1(spec *machine.Spec, nLocal, k, d int) Cost {
	model := regcomm.NewModel(spec)
	dmaElems := int64(nLocal)*int64(d) + int64(k)*int64(d)
	nCPE := 0
	if nLocal > 0 {
		nCPE = ceilDiv(nLocal, machine.CPEsPerCG)
	}
	perCPEFlops := int64(nCPE) * int64(d) * int64(3*k+1)
	regVolume := int64(k) * int64(d+1)
	return Cost{
		ReadSeconds:    dmaSeconds(spec, dmaElems),
		ComputeSeconds: float64(perCPEFlops) / spec.CPU.FlopsPerCPE,
		RegSeconds:     model.AllReduceTime(int(regVolume)),
		DMAElems:       dmaElems,
		RegElems:       int64(machine.CPEsPerCG) * 6 * regVolume,
		Flops:          int64(nLocal) * int64(d) * int64(3*k+1),
	}
}

// Level2 models Algorithm 2 on one CG: groups of mgroup CPEs share
// each sample (duplicating sample DMA mgroup times), each CPE covers a
// k/mgroup centroid slice that lives in CG DRAM and re-streams through
// LDM once per resident sample batch, assignments take a register
// min-reduce per batch inside every group, and the per-group partial
// sums combine across the CG's 64/mgroup groups.
func Level2(spec *machine.Spec, nLocal, k, d, mgroup, batch int) Cost {
	model := regcomm.NewModel(spec)
	gPerCG := machine.CPEsPerCG / mgroup
	nPerGroup := 0
	if nLocal > 0 {
		nPerGroup = ceilDiv(nLocal, gPerCG)
	}
	kLocal := ceilDiv(k, mgroup)

	// Sample streaming (duplicated inside each CPE group) plus one
	// initial centroid load.
	streamElems := int64(nLocal) * int64(d) * int64(mgroup)
	loadElems := int64(machine.CPEsPerCG) * int64(kLocal) * int64(d)
	// Centroid re-streaming: every resident sample batch passes the
	// whole per-CPE centroid slice through LDM again.
	passes := 0
	if nPerGroup > 0 {
		passes = ceilDiv(nPerGroup, ldm.ResidentBatch(spec, d)) - 1 // first pass is the load
		if passes < 0 {
			passes = 0
		}
	}
	restreamElems := int64(passes) * int64(kLocal) * int64(d) * int64(machine.CPEsPerCG)
	dmaElems := streamElems + loadElems + restreamElems

	perCPEFlops := int64(nPerGroup) * int64(d) * int64(3*kLocal+1)

	batches := 0
	if nPerGroup > 0 {
		batches = ceilDiv(nPerGroup, batch)
	}
	minReduceSteps := log2Ceil(mgroup)
	regSeconds := float64(batches*minReduceSteps) * model.StepTime(2*batch)
	combineSteps := log2Ceil(gPerCG)
	regSeconds += float64(combineSteps) * model.StepTime(kLocal*(d+1))
	regElems := int64(machine.CPEsPerCG) * (int64(batches*minReduceSteps)*int64(2*batch) +
		int64(combineSteps)*int64(kLocal)*int64(d+1))

	return Cost{
		ReadSeconds: dmaSeconds(spec, streamElems+loadElems) +
			RestreamOverlap*dmaSeconds(spec, restreamElems),
		ComputeSeconds: float64(perCPEFlops) / spec.CPU.FlopsPerCPE,
		RegSeconds:     regSeconds,
		DMAElems:       dmaElems,
		RegElems:       regElems,
		Flops:          int64(nLocal) * int64(d) * int64(3*kLocal+1) * int64(mgroup),
	}
}

// Level3 models Algorithm 3 on one CG inside a CG group owning nGroup
// samples: the CG streams every group sample once (striped across its
// 64 CPEs), holds a k/m'group centroid slice striped the same way,
// computes stripe-partial distances and combines them with a mesh
// allreduce per batch. With tiled=true the centroid stripes exceed the
// LDM residency budget and re-stream from DRAM once per resident
// sample batch. The group min-reduce and the cross-group sum run over
// MPI and are not part of the local cost.
func Level3(spec *machine.Spec, nGroup, k, d, mPrime, batch int, tiled bool) Cost {
	model := regcomm.NewModel(spec)
	kLocal := ceilDiv(k, mPrime)
	dStripe := ceilDiv(d, machine.CPEsPerCG)

	streamElems := int64(nGroup) * int64(d)
	loadElems := int64(kLocal) * int64(d)
	restreamElems := int64(0)
	if tiled && nGroup > 0 {
		passes := ceilDiv(nGroup, ldm.ResidentBatch(spec, dStripe)) - 1
		if passes < 0 {
			passes = 0
		}
		restreamElems = int64(passes) * int64(kLocal) * int64(d)
	}
	dmaElems := streamElems + loadElems + restreamElems

	perCPEFlops := int64(nGroup) * int64(dStripe) * int64(3*kLocal+1)

	batches := 0
	if nGroup > 0 {
		batches = ceilDiv(nGroup, batch)
	}
	regSeconds := float64(batches) * model.AllReduceTime(batch*kLocal)
	regElems := int64(machine.CPEsPerCG) * 6 * int64(batches) * int64(batch) * int64(kLocal)

	return Cost{
		ReadSeconds: dmaSeconds(spec, streamElems+loadElems) +
			RestreamOverlap*dmaSeconds(spec, restreamElems),
		ComputeSeconds: float64(perCPEFlops) / spec.CPU.FlopsPerCPE,
		RegSeconds:     regSeconds,
		DMAElems:       dmaElems,
		RegElems:       regElems,
		Flops:          int64(nGroup) * int64(d) * int64(3*kLocal+1),
	}
}
