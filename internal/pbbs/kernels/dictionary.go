//go:build ignore

// Benchmark 4 — dictionary/deterministicHash.
//
// Open-addressing hash table (Fibonacci hashing, linear probing) at load
// factor <= 1/4: insert n keys with duplicates, then probe n queries (half
// drawn from the inserted keys, half random). The checksum folds the final
// probe slot of every hit and a sentinel for every miss, so it pins down the
// exact probe sequences. Embedded and lowered by internal/gofront; not
// compiled into the binary.
package kernels

//repro:array len=n
var keys []uint64

//repro:array len=n
var qrys []uint64

//repro:array len=pow2(4*n)
var tab []uint64

//repro:kernel id=4 name=dictionary/deterministicHash minn=2 inputs=dictionary
//repro:const Tab = pow2(4*n)
//repro:const Shift = 64 - log2(pow2(4*n))
func dictionary() uint64 {
	n := uint64(N)
	for i := uint64(0); i < n; i++ {
		k := keys[i] + 1
		h := (k * 0x9e3779b97f4a7c15) >> Shift
		for tab[h] != 0 && tab[h] != k {
			h = (h + 1) & (Tab - 1)
		}
		tab[h] = k
	}
	s := uint64(0)
	for i := uint64(0); i < n; i++ {
		k := qrys[i] + 1
		h := (k * 0x9e3779b97f4a7c15) >> Shift
		for tab[h] != 0 && tab[h] != k {
			h = (h + 1) & (Tab - 1)
		}
		if tab[h] == k {
			s = s*31 + h
		} else {
			s = s*31 + 0xdeadbeef
		}
	}
	return s
}
