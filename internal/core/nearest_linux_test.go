package core

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns n zeroed float64s that end exactly where an
// inaccessible page begins, so a read past the slice faults instead of
// returning whatever lies there.
func guardedFloats(t *testing.T, n int) []float64 {
	t.Helper()
	page := syscall.Getpagesize()
	if 8*n > page {
		t.Fatalf("%d float64s do not fit in a %d-byte page", n, page)
	}
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[page-8*n])), n)
}

// TestNearestStaysInsideItsSlices ends the centroid matrix, and then
// the query, at a guard page and runs every entry point through
// checkNearest, over the d that end a coordinate pair, a group of 8
// and the odd tail in each way, and the k that end a block of four
// rows full, short by one and by more.
func TestNearestStaysInsideItsSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 2, 3, 7, 8, 9, 33} {
		for _, k := range []int{1, 2, 3, 5, 6} {
			cents := make([]float64, k*d)
			for i := range cents {
				cents[i] = float64(rng.Intn(5)) + rng.NormFloat64()
			}
			x := make([]float64, d)
			for u := range x {
				x[u] = cents[(k-1)*d+u] + rng.NormFloat64()/4
			}
			guarded := guardedFloats(t, k*d)
			copy(guarded, cents)
			checkNearest(t, x, guarded, d)
			guardedX := guardedFloats(t, d)
			copy(guardedX, x)
			checkNearest(t, guardedX, cents, d)
		}
	}
}
