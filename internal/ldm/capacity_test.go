package ldm

import (
	"testing"

	"repro/internal/machine"
)

func TestLevel1StreamChunk(t *testing.T) {
	spec := machine.MustSpec(1)
	elems := ElemsPerLDM(spec.LDMBytesPerCPE)

	if got := Level1StreamChunk(spec, 8, 4); got != 64 {
		t.Errorf("small shape chunk = %d, want the 64-sample DMA cap", got)
	}
	// k=101 d=80 leaves 123 elements of stream budget: one 80-element
	// sample fits, two do not; one more centroid overruns the LDM.
	if got := Level1StreamChunk(spec, 101, 80); got != 1 {
		t.Errorf("tight shape chunk = %d, want 1", got)
	}
	if got := Level1StreamChunk(spec, 102, 80); got != 0 {
		t.Errorf("oversubscribed shape chunk = %d, want 0", got)
	}

	// Any shape CheckLevel1 admits must leave room for at least one
	// streamed sample: C1 guarantees free = elems-2kd-k >= d.
	for k := 1; k < 64; k += 7 {
		for d := 1; 2*k*d+k+d <= elems; d *= 2 {
			if CheckLevel1(spec, k, d) != nil {
				continue
			}
			if got := Level1StreamChunk(spec, k, d); got < 1 {
				t.Errorf("CheckLevel1 admits k=%d d=%d but chunk = %d", k, d, got)
			}
		}
	}
}

func TestResidentBatch(t *testing.T) {
	spec := machine.MustSpec(1)
	half := ElemsPerLDM(spec.LDMBytesPerCPE) / 2

	if got := ResidentBatch(spec, 1); got != half {
		t.Errorf("ResidentBatch(1) = %d, want %d", got, half)
	}
	// Half of 16,384 four-byte elements, in rows of 4.
	if got := ResidentBatch(spec, 4); got != 2048 {
		t.Errorf("ResidentBatch(4) = %d, want 2048", got)
	}
	if got := ResidentBatch(spec, half*10); got != 1 {
		t.Errorf("huge dims batch = %d, want the floor of 1", got)
	}
	if got := ResidentBatch(spec, 0); got != half {
		t.Errorf("dims=0 batch = %d, want %d (clamped to one element)", got, half)
	}
}

func TestMaxDLevel3(t *testing.T) {
	spec := machine.MustSpec(1)
	d := MaxDLevel3(spec)
	if d%machine.CPEsPerCG != 0 {
		t.Fatalf("MaxDLevel3 = %d, not a whole number of %d-wide stripes", d, machine.CPEsPerCG)
	}
	// The returned d satisfies C″2, and one more stripe does not.
	capCG := machine.CPEsPerCG * ElemsPerLDM(spec.LDMBytesPerCPE)
	if 3*d+1 > capCG {
		t.Errorf("MaxDLevel3 = %d violates C\"2: 3d+1 = %d > %d", d, 3*d+1, capCG)
	}
	next := d + machine.CPEsPerCG
	if 3*next+1 <= capCG {
		t.Errorf("MaxDLevel3 = %d is not maximal: d=%d still satisfies C\"2", d, next)
	}
	// End to end through the central check (m'group=2 so C″1's group
	// capacity admits the working set at k=2).
	if err := CheckLevel3(spec, 2, d, 2); err != nil {
		t.Errorf("CheckLevel3 rejects k=2 d=MaxDLevel3=%d: %v", d, err)
	}
	if err := CheckLevel3(spec, 2, next, 2); err == nil {
		t.Errorf("CheckLevel3 admits d=%d beyond MaxDLevel3", next)
	}
}
