//go:build ignore

// Benchmark 1 — breadthFirstSearch/deterministicBFS.
//
// Single-source BFS from vertex 0 over a random undirected CSR graph, with
// an explicit FIFO queue; the checksum folds every vertex's hop distance
// (unreached vertices keep the "infinity" sentinel). Embedded and lowered by
// internal/gofront; not compiled into the binary.
package kernels

//repro:array len=n+1
var off []uint64

//repro:array len=6*n
var adj []uint64

//repro:array len=n
var dist []uint64

//repro:array len=n
var fifo []uint64

//repro:kernel id=1 name=breadthFirstSearch/deterministicBFS minn=2 inputs=graph
func bfs() uint64 {
	n := uint64(N)
	none := uint64(0xffffffffffffffff)
	for i := uint64(0); i < n; i++ {
		dist[i] = none
	}
	dist[0] = 0
	fifo[0] = 0
	head := uint64(0)
	tail := uint64(1)
	for head < tail {
		u := fifo[head]
		head++
		for e := off[u]; e < off[u+1]; e++ {
			v := adj[e]
			if dist[v] == none {
				dist[v] = dist[u] + 1
				fifo[tail] = v
				tail++
			}
		}
	}
	s := uint64(0)
	for i := uint64(0); i < n; i++ {
		s = s*31 + dist[i]
	}
	return s
}
