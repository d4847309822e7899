//go:build ignore

// Benchmark 5 — integerSort/blockRadixSort.
//
// LSD radix sort of 32-bit keys in four 8-bit-digit passes: histogram,
// exclusive prefix sum, stable scatter, copy back. Embedded and lowered by
// internal/gofront; not compiled into the binary.
package kernels

//repro:array len=n
var a []uint64

//repro:array len=n
var b []uint64

//repro:array len=256
var cnt []uint64

//repro:kernel id=5 name=integerSort/blockRadixSort minn=2 inputs=keys32
func radixSort() uint64 {
	n := uint64(N)
	for pass := 0; pass < 4; pass++ {
		sh := uint64(pass * 8)
		for d := 0; d < 256; d++ {
			cnt[d] = 0
		}
		for i := uint64(0); i < n; i++ {
			d := (a[i] >> sh) & 255
			cnt[d] = cnt[d] + 1
		}
		run := uint64(0)
		for d := 0; d < 256; d++ {
			c := cnt[d]
			cnt[d] = run
			run = run + c
		}
		for i := uint64(0); i < n; i++ {
			d := (a[i] >> sh) & 255
			b[cnt[d]] = a[i]
			cnt[d] = cnt[d] + 1
		}
		for i := uint64(0); i < n; i++ {
			a[i] = b[i]
		}
	}
	s := uint64(0)
	for i := uint64(0); i < n; i++ {
		s = s*31 + a[i]
	}
	return s
}
