package regcomm

import (
	"fmt"
	"testing"

	"repro/internal/machine"
)

// BenchmarkMeshAllReduce measures the functional 8x8-mesh allreduce
// with 64 CPE goroutines — the register-communication bottleneck of
// the Update step — at a tiny payload and at cpe-mesh's m·k = 4,096.
// One mesh and one Run serve every iteration, so ns/op and B/op are
// the allreduce's own.
func BenchmarkMeshAllReduce(b *testing.B) {
	for _, elems := range []int{4, 4096} {
		b.Run(fmt.Sprintf("elems%d", elems), func(b *testing.B) {
			mesh := NewMesh(machine.MustSpec(1), nil)
			bufs := make([][]float64, machine.CPEsPerCG)
			for i := range bufs {
				bufs[i] = make([]float64, elems)
			}
			b.ReportAllocs()
			b.ResetTimer()
			mesh.Run(func(c *CPE) {
				buf := bufs[c.ID()]
				for i := 0; i < b.N; i++ {
					if err := c.AllReduce(buf, nil); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkModelAllReduceTime measures the closed-form cost path used
// by the CG executors.
func BenchmarkModelAllReduceTime(b *testing.B) {
	m := NewModel(machine.MustSpec(1))
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += m.AllReduceTime(4096)
	}
	_ = sink
}
