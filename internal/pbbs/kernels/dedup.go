//go:build ignore

// Benchmark 10 — removeDuplicates/deterministicHash.
//
// Hash-based duplicate removal over keys drawn from a small range (so
// duplicates are plentiful): the first occurrence of each value claims a
// table slot. The checksum folds the distinct count and the sum of distinct
// values, both order-independent. Embedded and lowered by internal/gofront;
// not compiled into the binary.
package kernels

//repro:array len=n
var a []uint64

//repro:array len=pow2(4*n)
var tab []uint64

//repro:kernel id=10 name=removeDuplicates/deterministicHash minn=2 inputs=keysModN
//repro:const Tab = pow2(4*n)
//repro:const Shift = 64 - log2(pow2(4*n))
func dedup() uint64 {
	n := uint64(N)
	cnt := uint64(0)
	sum := uint64(0)
	for i := uint64(0); i < n; i++ {
		k := a[i] + 1
		h := (k * 0x9e3779b97f4a7c15) >> Shift
		for tab[h] != 0 && tab[h] != k {
			h = (h + 1) & (Tab - 1)
		}
		if tab[h] == 0 {
			tab[h] = k
			cnt = cnt + 1
			sum = sum + a[i]
		}
	}
	return cnt*0x9e3779b97f4a7c15 + sum
}
