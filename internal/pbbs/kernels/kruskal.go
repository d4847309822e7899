//go:build ignore

// Benchmark 8 — minSpanningForest/parallelKruskal.
//
// Kruskal's minimum spanning forest: quicksort the edge list by weight, then
// scan it with a union-find (path halving). The checksum folds the total
// forest weight and the number of tree edges, both invariant across any
// tie-breaking of equal weights (the matroid exchange property). Embedded
// and lowered by internal/gofront; not compiled into the binary.
package kernels

//repro:array len=3*n
var eu []uint64

//repro:array len=3*n
var ev []uint64

//repro:array len=3*n
var ew []uint64

//repro:array len=n
var parent []uint64

func find(x uint64) uint64 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

func qs(lo int64, hi int64) {
	if lo >= hi {
		return
	}
	p := ew[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if ew[j] < p {
			t := ew[i]
			ew[i] = ew[j]
			ew[j] = t
			t = eu[i]
			eu[i] = eu[j]
			eu[j] = t
			t = ev[i]
			ev[i] = ev[j]
			ev[j] = t
			i++
		}
	}
	t := ew[i]
	ew[i] = ew[hi]
	ew[hi] = t
	t = eu[i]
	eu[i] = eu[hi]
	eu[hi] = t
	t = ev[i]
	ev[i] = ev[hi]
	ev[hi] = t
	qs(lo, i-1)
	qs(i+1, hi)
}

//repro:kernel id=8 name=minSpanningForest/parallelKruskal minn=2 inputs=weightedEdges
//repro:const M = 3*n
func kruskal() uint64 {
	n := uint64(N)
	m := uint64(M)
	for v := uint64(0); v < n; v++ {
		parent[v] = v
	}
	qs(0, M-1)
	w := uint64(0)
	taken := uint64(0)
	for e := uint64(0); e < m; e++ {
		ru := find(eu[e])
		rv := find(ev[e])
		if ru != rv {
			parent[ru] = rv
			w = w + ew[e]
			taken++
		}
	}
	return w*0x9e3779b97f4a7c15 + taken
}
