//go:build ignore

// Benchmark 6 — maximalIndependentSet/ndMIS.
//
// Greedy maximal independent set in vertex order over a random undirected
// CSR graph: a vertex joins the set when no lower-numbered neighbour already
// did. The vertex numbering plays the role of the random priorities of the
// PBBS non-deterministic MIS (the numbering itself is randomly generated).
// Embedded and lowered by internal/gofront; not compiled into the binary.
package kernels

//repro:array len=n+1
var off []uint64

//repro:array len=6*n
var adj []uint64

//repro:array len=n
var flag []uint64

//repro:kernel id=6 name=maximalIndependentSet/ndMIS minn=2 inputs=graph
func mis() uint64 {
	n := uint64(N)
	for v := uint64(0); v < n; v++ {
		ok := uint64(1)
		for e := off[v]; e < off[v+1]; e++ {
			u := adj[e]
			// Not valid Go: flag[u] is an integer operand of &&. The
			// subset is not type-checked, and mini-C reads it with C
			// truthiness (non-zero is true).
			if u < v && flag[u] {
				ok = 0
			}
		}
		flag[v] = ok
	}
	s := uint64(0)
	for v := uint64(0); v < n; v++ {
		s = s*31 + flag[v]*(v+1)
	}
	return s
}
