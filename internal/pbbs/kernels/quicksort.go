//go:build ignore

// Benchmark 2 — comparisonSort/quickSort.
//
// Recursive quicksort with Lomuto last-element partitioning over random
// 32-bit keys. This file is not compiled into the binary: it is embedded and
// lowered to mini-C by internal/gofront, and the same lowered AST is
// interpreted in pure Go for the reference checksum.
package kernels

//repro:array len=n
var a []uint64

func qs(lo int64, hi int64) {
	if lo >= hi {
		return
	}
	p := a[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if a[j] < p {
			t := a[i]
			a[i] = a[j]
			a[j] = t
			i++
		}
	}
	t := a[i]
	a[i] = a[hi]
	a[hi] = t
	qs(lo, i-1)
	qs(i+1, hi)
}

//repro:kernel id=2 name=comparisonSort/quickSort minn=2 inputs=keys32
func quickSort() uint64 {
	qs(0, N-1)
	s := uint64(0)
	for i := 0; i < N; i++ {
		s = s*31 + a[i]
	}
	return s
}
