package cpuid

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAVX2DetectionMatchesCPUInfo holds the CPUID check to the
// kernel's own report, so a host with AVX2 cannot quietly test only
// the Go paths of the kernels that ask AVX2.
func TestAVX2DetectionMatchesCPUInfo(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	want := false
	for _, line := range strings.Split(string(data), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			want = slices.Contains(strings.Fields(flags), "avx2")
			break
		}
	}
	if got := AVX2(); got != want {
		t.Fatalf("AVX2() = %v, /proc/cpuinfo lists avx2: %v", got, want)
	}
}
