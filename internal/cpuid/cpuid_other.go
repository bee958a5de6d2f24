//go:build !amd64

package cpuid

// AVX2 is false off amd64, where the module has no assembly.
func AVX2() bool { return false }
