// Package suppress exercises the //swlint:ignore machinery against
// float-eq findings: trailing and preceding placement, rule lists with
// reasons, wrong and unknown rule names, malformed and stale ignores.
package suppress

// Trailing carries the ignore on the offending line itself.
func Trailing(a, b float64) bool {
	return a == b //swlint:ignore float-eq -- exact sentinel compare
}

// Above carries the ignore on the line directly before.
func Above(a, b float64) bool {
	//swlint:ignore float-eq -- exact sentinel compare
	return a == b
}

// Multi suppresses several rules with one comment.
func Multi(a, b float64) bool {
	//swlint:ignore float-eq,err-wrap -- shared justification
	return a != b
}

// WrongRule names a different rule, so the finding survives.
func WrongRule(a, b float64) bool {
	//swlint:ignore no-wallclock -- wrong rule
	return a == b
}

// NoReason uses the legacy reason-free form, now malformed: it
// suppresses nothing and reports as bad-suppress.
func NoReason(a, b float64) bool {
	//swlint:ignore float-eq legacy form without separator
	return a == b
}

// Far is two lines above the finding, out of suppression range: the
// finding survives and the comment reports as unused.
func Far(a, b float64) bool {
	//swlint:ignore float-eq -- too far away

	return a == b
}

// Misspelled names a rule outside the catalogue: bad-suppress on every
// run, and the finding survives.
func Misspelled(a, b float64) bool {
	//swlint:ignore flaot-eq -- exact tie-break
	return a == b
}

// Retired names a rule ID that no longer exists: bad-suppress as well.
func Retired(a, b float64) bool {
	//swlint:ignore collective-order -- retired rule
	return a == b
}
