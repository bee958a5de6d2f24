//go:build !swlintfixture

package buildfiles

// tagged is declared under a build tag and under its negation.
const tagged = false
