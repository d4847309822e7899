package pbbs

// Input generators. A kernel's //repro:kernel inputs=NAME annotation picks
// one from generators; Kernel.Gen seeds the stream. Each generator returns
// words for some of the kernel's //repro:array globals, with exactly the
// lengths those annotations declare; arrays it leaves out start zeroed.
var generators = map[string]func(n int, r *rng) Inputs{
	"keys32":        func(n int, r *rng) Inputs { return Inputs{"a": draws(n, r, 1<<32)} },
	"keysModN":      func(n int, r *rng) Inputs { return Inputs{"a": draws(n, r, uint64(n))} },
	"graph":         genGraph,
	"edges":         genEdges,
	"weightedEdges": genWeightedEdges,
	"points16":      func(n int, r *rng) Inputs { return genPoints(n, r, 1<<16) },
	"points20":      func(n int, r *rng) Inputs { return genPoints(n, r, 1<<20) },
	"dictionary":    genDictionary,
}

// draws returns n values drawn uniformly from [0, bound).
func draws(n int, r *rng, bound uint64) []uint64 {
	words := make([]uint64, n)
	for i := range words {
		words[i] = r.uintn(bound)
	}
	return words
}

// Graphs are random multigraphs: m independently drawn (u, v) pairs over n
// vertices. Self-loops and parallel edges are kept; every kernel handles
// them, so the cross-check stays exact.

// graphDegree is the edge-to-vertex ratio of the generated graphs
// (m = graphDegree·n), matching the sparse inputs PBBS uses. The kernels'
// array annotations spell it out (len=3*n for edges, len=6*n for CSR
// adjacency).
const graphDegree = 3

// randEdges draws m endpoint pairs over n vertices.
func randEdges(n, m int, r *rng) (eu, ev []uint64) {
	eu = make([]uint64, m)
	ev = make([]uint64, m)
	for i := 0; i < m; i++ {
		eu[i] = r.uintn(uint64(n))
		ev[i] = r.uintn(uint64(n))
	}
	return eu, ev
}

// genGraph returns the undirected CSR adjacency {off, adj} of an n-vertex
// random graph: off has n+1 entries and adj has 2m entries (each edge
// contributes both directions; a self-loop contributes its endpoint twice).
func genGraph(n int, r *rng) Inputs {
	eu, ev := randEdges(n, graphDegree*n, r)
	deg := make([]uint64, n)
	for i := range eu {
		deg[eu[i]]++
		deg[ev[i]]++
	}
	off := make([]uint64, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	adj := make([]uint64, 2*len(eu))
	cur := make([]uint64, n)
	copy(cur, off[:n])
	for i := range eu {
		u, v := eu[i], ev[i]
		adj[cur[u]] = v
		cur[u]++
		adj[cur[v]] = u
		cur[v]++
	}
	return Inputs{"off": off, "adj": adj}
}

// genEdges returns the edge list {eu, ev} of an n-vertex random graph.
func genEdges(n int, r *rng) Inputs {
	eu, ev := randEdges(n, graphDegree*n, r)
	return Inputs{"eu": eu, "ev": ev}
}

// genWeightedEdges is genEdges plus random 40-bit edge weights ew, drawn
// after all the endpoints.
func genWeightedEdges(n int, r *rng) Inputs {
	eu, ev := randEdges(n, graphDegree*n, r)
	return Inputs{"eu": eu, "ev": ev, "ew": draws(len(eu), r, 1<<40)}
}

// genPoints returns n points {px, py} with coordinates in [0, bound), drawn
// x then y per point.
func genPoints(n int, r *rng, bound uint64) Inputs {
	px := make([]uint64, n)
	py := make([]uint64, n)
	for i := 0; i < n; i++ {
		px[i] = r.uintn(bound)
		py[i] = r.uintn(bound)
	}
	return Inputs{"px": px, "py": py}
}

// genDictionary returns n 30-bit keys (with duplicates) and n queries:
// even-indexed queries are sampled from the keys, odd ones are fresh draws.
func genDictionary(n int, r *rng) Inputs {
	keys := draws(n, r, 1<<30)
	qrys := make([]uint64, n)
	for i := range qrys {
		if i%2 == 0 {
			qrys[i] = keys[r.uintn(uint64(n))]
		} else {
			qrys[i] = r.uintn(1 << 30)
		}
	}
	return Inputs{"keys": keys, "qrys": qrys}
}
