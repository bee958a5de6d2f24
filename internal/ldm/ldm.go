// Package ldm simulates the 64 KB Local Directive Memory (LDM, also
// called scratch pad memory) attached to every CPE of the SW26010
// processor, and implements the paper's capacity constraints that
// govern which problem shapes each partition level can run.
//
// The LDM is a user-controlled fast buffer: there is no hardware cache
// management, so a kernel must explicitly allocate every buffer it
// needs, and a shape that does not fit simply cannot run at that
// partition level. The Allocator type reproduces this behaviour with
// byte-exact accounting, and the Constraint functions reproduce the
// closed-form feasibility tests of Section III:
//
//	Level 1:  C1:  d(1+2k)+k ≤ LDM          (one sample, all centroids)
//	          C2:  3d+1      ≤ LDM
//	          C3:  3k+1      ≤ LDM
//	Level 2:  C′1: d(1+2k)+k ≤ mgroup·LDM   (mgroup ≤ 64 CPEs share k)
//	          C′2: = C2
//	          C′3: 3k+1      ≤ mgroup·LDM
//	Level 3:  C″1: d(1+2k)+k ≤ 64·m′group·LDM  (= m·LDM, the breakthrough)
//	          C″2: 3d+1      ≤ 64·LDM
//	          C″3: 3k+1      ≤ m′group·64·LDM
//
// Constraint capacities are counted in data elements, as in the paper;
// ElemBytes converts the element capacity of one LDM from its byte
// size.
package ldm

import (
	"fmt"

	"repro/internal/machine"
)

// ElemBytes is the size of one data element in the constraint
// arithmetic. The SW26010 implementation streams single-precision
// values, so the published capacity limits correspond to 4-byte
// elements.
const ElemBytes = 4

// ElemsPerLDM returns how many data elements fit in an LDM of the
// given byte capacity.
func ElemsPerLDM(ldmBytes int) int { return ldmBytes / ElemBytes }

// An Allocator owns the byte budget of one CPE's LDM and hands out
// named buffers. It reproduces the programming model of the real
// hardware: allocation is explicit, capacity is hard, and exhaustion
// is an error the kernel must handle by choosing a different partition
// plan.
type Allocator struct {
	capacity int
	used     int
	buffers  map[string]int
}

// NewAllocator returns an allocator over capacity bytes.
// It panics if capacity is not positive: an LDM of zero bytes is a
// configuration error, not a runtime condition.
func NewAllocator(capacity int) *Allocator {
	if capacity <= 0 {
		panic(fmt.Sprintf("ldm: capacity must be positive, got %d", capacity))
	}
	return &Allocator{capacity: capacity, buffers: make(map[string]int)}
}

// CapacityError reports an allocation that exceeded the LDM budget.
type CapacityError struct {
	Name      string // buffer being allocated
	Requested int    // bytes requested
	Free      int    // bytes available
	Capacity  int    // total LDM bytes
}

// Error implements the error interface.
func (e *CapacityError) Error() string {
	return fmt.Sprintf("ldm: buffer %q needs %d B but only %d of %d B free",
		e.Name, e.Requested, e.Free, e.Capacity)
}

// Alloc reserves size bytes under the given name. Reusing a live name
// or requesting a non-positive size is a programming error reported as
// an error value (the simulated kernel treats it like a compile error).
func (a *Allocator) Alloc(name string, size int) error {
	if size <= 0 {
		return fmt.Errorf("ldm: buffer %q size must be positive, got %d", name, size)
	}
	if _, live := a.buffers[name]; live {
		return fmt.Errorf("ldm: buffer %q already allocated", name)
	}
	if a.used+size > a.capacity {
		return &CapacityError{Name: name, Requested: size, Free: a.capacity - a.used, Capacity: a.capacity}
	}
	a.buffers[name] = size
	a.used += size
	return nil
}

// AllocFloats reserves a buffer of n data elements.
func (a *Allocator) AllocFloats(name string, n int) error {
	return a.Alloc(name, n*ElemBytes)
}

// ConstraintError reports a problem shape that violates one of the
// paper's capacity constraints at a given partition level.
type ConstraintError struct {
	Constraint string // e.g. "C1", "C'3", `C"1`
	Detail     string
}

// Error implements the error interface.
func (e *ConstraintError) Error() string {
	return fmt.Sprintf("ldm: constraint %s violated: %s", e.Constraint, e.Detail)
}

// footprint returns the element count of the Level-1 working set on
// one computing unit holding kLocal centroids of dimension dLocal plus
// one sample slice: d(1+2k)+k in the paper's notation.
func footprint(dLocal, kLocal int) int {
	return dLocal*(1+2*kLocal) + kLocal
}

// CheckLevel1 validates constraints C1-C3 for a Level-1 run: every CPE
// holds one whole d-dimensional sample, all k centroids, the k partial
// centroid sums and the k counters.
func CheckLevel1(spec *machine.Spec, k, d int) error {
	if err := checkShape(k, d); err != nil {
		return err
	}
	cap1 := ElemsPerLDM(spec.LDMBytesPerCPE)
	if 3*d+1 > cap1 {
		return &ConstraintError{"C2", fmt.Sprintf("3d+1 = %d > LDM = %d elements", 3*d+1, cap1)}
	}
	if 3*k+1 > cap1 {
		return &ConstraintError{"C3", fmt.Sprintf("3k+1 = %d > LDM = %d elements", 3*k+1, cap1)}
	}
	if fp := footprint(d, k); fp > cap1 {
		return &ConstraintError{"C1", fmt.Sprintf("d(1+2k)+k = %d > LDM = %d elements", fp, cap1)}
	}
	return nil
}

// CheckLevel2 validates the Level-2 feasibility conditions where
// mgroup CPEs of one CG partition the k centroids.
//
// A literal group-level C′1 would forbid the paper's own Level-2
// operating points (e.g. k = 2000, d = 4096 in Figures 7-9), so — as
// the real implementation must — the centroid set of a CG is held in
// the CG's share of node main memory and tiled through LDM by DMA.
// The binding LDM condition is then stream residency: every CPE keeps
// two sample stream buffers (double-buffered DMA), one centroid tile
// and one accumulator tile, each of d elements: 4d ≤ LDM. With the
// published 64 KB LDM and 4-byte elements this yields d ≤ 4096,
// exactly the limit Figure 7 reports for Level 2.
func CheckLevel2(spec *machine.Spec, k, d, mgroup int) error {
	if err := checkShape(k, d); err != nil {
		return err
	}
	if mgroup < 1 || mgroup > machine.CPEsPerCG {
		return fmt.Errorf("ldm: mgroup must be in [1,%d], got %d", machine.CPEsPerCG, mgroup)
	}
	cap1 := ElemsPerLDM(spec.LDMBytesPerCPE)
	capGroup := mgroup * cap1
	if 4*d > cap1 {
		return &ConstraintError{"C'2", fmt.Sprintf("stream residency 4d = %d > LDM = %d elements", 4*d, cap1)}
	}
	if 3*k+1 > capGroup {
		return &ConstraintError{"C'3", fmt.Sprintf("3k+1 = %d > mgroup*LDM = %d elements", 3*k+1, capGroup)}
	}
	// Centroids, their accumulated sums and counters live in the CG's
	// share of node DRAM and are tiled through LDM.
	need := int64(3) * int64(k) * int64(d) * ElemBytes
	if need > spec.DRAMBytesPerCG {
		return &ConstraintError{"C'1", fmt.Sprintf("centroid working set 3kd = %d B > per-CG DRAM = %d B", need, spec.DRAMBytesPerCG)}
	}
	return nil
}

// CheckLevel3 validates constraints C″1-C″3 for a Level-3 run where
// one CG of 64 CPEs holds a d-striped sample and m′group CGs partition
// the k centroids.
func CheckLevel3(spec *machine.Spec, k, d, mPrimeGroup int) error {
	if err := checkShape(k, d); err != nil {
		return err
	}
	if mPrimeGroup < 1 || mPrimeGroup > spec.CGs() {
		return fmt.Errorf("ldm: m'group must be in [1,%d], got %d", spec.CGs(), mPrimeGroup)
	}
	cap1 := ElemsPerLDM(spec.LDMBytesPerCPE)
	capCG := machine.CPEsPerCG * cap1
	capGroup := mPrimeGroup * capCG
	if 3*d+1 > capCG {
		return &ConstraintError{`C"2`, fmt.Sprintf("3d+1 = %d > 64*LDM = %d elements", 3*d+1, capCG)}
	}
	if 3*k+1 > capGroup {
		return &ConstraintError{`C"3`, fmt.Sprintf("3k+1 = %d > m'group*64*LDM = %d elements", 3*k+1, capGroup)}
	}
	if fp := footprint(d, k); fp > capGroup {
		return &ConstraintError{`C"1`, fmt.Sprintf("d(1+2k)+k = %d > m'group*64*LDM = %d elements", fp, capGroup)}
	}
	// Per-CPE working set: a d/64 dimension stripe of one sample and of
	// the CG's k/m'group centroid share, plus the counters.
	dLocal := ceilDiv(d, machine.CPEsPerCG)
	kLocal := ceilDiv(k, mPrimeGroup)
	if fp := footprint(dLocal, kLocal); fp > cap1 {
		return &ConstraintError{`C"1`, fmt.Sprintf("per-CPE stripe (d/64)(1+2·k/m'group)+k/m'group = %d > LDM = %d elements", fp, cap1)}
	}
	return nil
}

// CheckLevel3Tiled validates the relaxed Level-3 feasibility used when
// no CG group size achieves full per-CPE residency (the regime the
// paper's Figure 9 runs at its smallest node counts): the centroid
// stripes of a CG live in its DRAM share and are tiled through LDM,
// so the hard conditions are only the sample-stripe stream residency,
// the group-level counter constraint and the DRAM capacity.
func CheckLevel3Tiled(spec *machine.Spec, k, d, mPrimeGroup int) error {
	if err := checkShape(k, d); err != nil {
		return err
	}
	if mPrimeGroup < 1 || mPrimeGroup > spec.CGs() {
		return fmt.Errorf("ldm: m'group must be in [1,%d], got %d", spec.CGs(), mPrimeGroup)
	}
	cap1 := ElemsPerLDM(spec.LDMBytesPerCPE)
	capCG := machine.CPEsPerCG * cap1
	capGroup := mPrimeGroup * capCG
	dStripe := ceilDiv(d, machine.CPEsPerCG)
	if 4*dStripe > cap1 {
		return &ConstraintError{`C"2`, fmt.Sprintf("stream residency 4(d/64) = %d > LDM = %d elements", 4*dStripe, cap1)}
	}
	if 3*k+1 > capGroup {
		return &ConstraintError{`C"3`, fmt.Sprintf("3k+1 = %d > m'group*64*LDM = %d elements", 3*k+1, capGroup)}
	}
	kLocal := ceilDiv(k, mPrimeGroup)
	need := int64(3) * int64(kLocal) * int64(d) * ElemBytes
	if need > spec.DRAMBytesPerCG {
		return &ConstraintError{`C"1`, fmt.Sprintf("centroid slice working set 3(k/m')d = %d B > per-CG DRAM = %d B", need, spec.DRAMBytesPerCG)}
	}
	return nil
}

// MaxKLevel3 returns the largest k that satisfies the Level-3
// constraints for the given d and m′group on the spec, or 0 when even
// k = 1 does not fit.
func MaxKLevel3(spec *machine.Spec, d, mPrimeGroup int) int {
	lo, hi := 0, 1
	for CheckLevel3(spec, hi, d, mPrimeGroup) == nil {
		lo = hi
		hi *= 2
		if hi > 1<<30 {
			break
		}
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if CheckLevel3(spec, mid, d, mPrimeGroup) == nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func checkShape(k, d int) error {
	if k < 1 {
		return fmt.Errorf("ldm: centroid count k must be at least 1, got %d", k)
	}
	if d < 1 {
		return fmt.Errorf("ldm: dimension d must be at least 1, got %d", d)
	}
	return nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
