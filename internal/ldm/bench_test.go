package ldm

import (
	"testing"

	"repro/internal/machine"
)

func BenchmarkCheckLevel3(b *testing.B) {
	spec := machine.MustSpec(4096)
	for i := 0; i < b.N; i++ {
		if err := CheckLevel3(spec, 2000, 196608, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxKLevel3(b *testing.B) {
	spec := machine.MustSpec(4096)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += MaxKLevel3(spec, 196608, 1024)
	}
	_ = sink
}
