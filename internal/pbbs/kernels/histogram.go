//go:build ignore

// Benchmark 11 — histogram/counting.
//
// 256-bucket histogram of the top byte of random 32-bit keys, checksummed
// with the suite's rolling mix. The eleventh kernel, and the first defined
// only as annotated Go: no hand-written mini-C and no registry edits —
// internal/gofront derives the machine program and the reference checksum
// from this one file, and inputs=keys32 names its input generator.
package kernels

//repro:array len=n
var a []uint64

//repro:array len=256
var h []uint64

//repro:kernel id=11 name=histogram/counting minn=2 inputs=keys32
func histogram() uint64 {
	n := uint64(N)
	for b := 0; b < 256; b++ {
		h[b] = 0
	}
	for i := uint64(0); i < n; i++ {
		h[(a[i]>>24)&255] = h[(a[i]>>24)&255] + 1
	}
	s := uint64(0)
	for b := 0; b < 256; b++ {
		s = s*31 + h[b]
	}
	return s
}
