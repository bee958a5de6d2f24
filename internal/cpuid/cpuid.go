// Package cpuid reports the host CPU features that the module's
// assembly kernels need. The nearest-centroid scan (internal/core) and
// the Gaussian deviates (internal/dataset) run in AVX2 where AVX2
// reports true, and in Go everywhere else. The module uses only the
// standard library, so the check is written out here.
package cpuid
