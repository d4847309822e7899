//go:build ignore

// Benchmark 7 — maximalMatching/ndMatching.
//
// Greedy maximal matching in edge order over a random edge list: an edge is
// taken when both endpoints are still free. The checksum folds both the
// accepted edge indices and the final mate array. Embedded and lowered by
// internal/gofront; not compiled into the binary.
package kernels

//repro:array len=3*n
var eu []uint64

//repro:array len=3*n
var ev []uint64

//repro:array len=n
var mate []uint64

//repro:kernel id=7 name=maximalMatching/ndMatching minn=2 inputs=edges
//repro:const M = 3*n
func matching() uint64 {
	m := uint64(M)
	n := uint64(N)
	s := uint64(0)
	for e := uint64(0); e < m; e++ {
		u := eu[e]
		v := ev[e]
		if u != v && mate[u] == 0 && mate[v] == 0 {
			mate[u] = v + 1
			mate[v] = u + 1
			s = s*31 + e
		}
	}
	for v := uint64(0); v < n; v++ {
		s = s*31 + mate[v]
	}
	return s
}
