package ldm

import "repro/internal/machine"

// This file centralizes the capacity arithmetic that engines and cost
// models would otherwise re-derive by hand. The swlint ldm-provenance
// rule forbids raw LDMBytesPerCPE arithmetic outside this package, so
// every buffer-sizing decision traces back to the constraint algebra
// of Section III in one place.

// Level1StreamChunk returns the per-CPE sample-chunk size, in samples,
// for Level-1 streaming: the LDM budget left after the resident
// centroid working set of constraint C1 (the centroid set, the sum
// set and the counters: 2kd+k elements), divided by the sample size,
// capped at 64 samples per DMA chunk. It returns 0 when the resident
// set leaves no stream budget — exactly the shapes CheckLevel1
// rejects or brings within one sample of the capacity edge.
func Level1StreamChunk(spec *machine.Spec, k, d int) int {
	free := ElemsPerLDM(spec.LDMBytesPerCPE) - 2*k*d - k
	chunk := free / d
	if chunk < 0 {
		chunk = 0
	}
	if chunk > 64 {
		chunk = 64
	}
	return chunk
}

// ResidentBatch returns how many samples of dims elements fit in the
// half of one LDM reserved for sample residency while centroid tiles
// stream through the other half — the double-buffered tiling regime
// of the Level-2 cost model. The result is at least 1.
func ResidentBatch(spec *machine.Spec, dims int) int {
	if dims < 1 {
		dims = 1
	}
	batch := ElemsPerLDM(spec.LDMBytesPerCPE) / 2 / dims
	if batch < 1 {
		batch = 1
	}
	return batch
}

// MaxDLevel3 returns the largest dimension count constraint C″2
// (3d+1 ≤ 64·LDM) admits on the deployment, rounded down to a whole
// number of per-CPE stripes so every CPE owns an equal dimension
// share.
func MaxDLevel3(spec *machine.Spec) int {
	capCG := machine.CPEsPerCG * ElemsPerLDM(spec.LDMBytesPerCPE)
	d := (capCG - 1) / 3
	return d - d%machine.CPEsPerCG
}
