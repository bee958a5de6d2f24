// Package ldmcap exercises ldm-provenance's raw-capacity triggers:
// functions that allocate LDM or read the raw capacity field must route
// through a central ldm.Check* feasibility call instead of re-deriving
// the paper's constraints by hand.
package ldmcap

import (
	"repro/internal/ldm"
	"repro/internal/machine"
)

// HandRolled re-derives constraint C1 from the raw capacity — the
// drift the rule exists to prevent.
func HandRolled(spec *machine.Spec, k, d int) bool {
	elems := spec.LDMBytesPerCPE / 8
	return d*(1+2*k)+k <= elems
}

// Checked routes through the central feasibility check before
// allocating; not a finding.
func Checked(spec *machine.Spec, k, d int) error {
	if err := ldm.CheckLevel1(spec, k, d); err != nil {
		return err
	}
	alloc := ldm.NewAllocator(spec.LDMBytesPerCPE)
	return alloc.AllocFloats("centroids", k*d)
}

// Alloc allocates with no feasibility check at all — a finding at the
// allocation call.
func Alloc(spec *machine.Spec, k, d int) error {
	alloc := ldm.NewAllocator(spec.LDMBytesPerCPE)
	return alloc.AllocFloats("centroids", k*d)
}

// ensure wraps the feasibility gate in a helper.
func ensure(spec *machine.Spec, k, d int) error {
	return ldm.CheckLevel1(spec, k, d)
}

// HelperChecked reads the raw capacity behind a helper's Check*: the
// gate reaches through the helper's summary, so not a finding.
func HelperChecked(spec *machine.Spec, k, d int) (int, error) {
	if err := ensure(spec, k, d); err != nil {
		return 0, err
	}
	return spec.LDMBytesPerCPE / 8, nil
}
