//go:build ignore

// Benchmark 9 — nearestNeighbors/allNearestNeighbors.
//
// All-pairs nearest neighbour over random integer points (exact quadratic
// scan; PBBS uses a quadtree — see DESIGN.md). Ties resolve to the lowest
// index; the checksum folds every point's neighbour index. Embedded and
// lowered by internal/gofront; not compiled into the binary.
package kernels

//repro:array len=n
var px []int64

//repro:array len=n
var py []int64

//repro:kernel id=9 name=nearestNeighbors/allNearestNeighbors minn=2 inputs=points20
func nearestNeighbors() uint64 {
	s := uint64(0)
	for i := int64(0); i < N; i++ {
		best := int64(0 - 1)
		bd := int64(0x7fffffffffffffff)
		for j := int64(0); j < N; j++ {
			if j != i {
				dx := px[i] - px[j]
				dy := py[i] - py[j]
				d := dx*dx + dy*dy
				if d < bd {
					bd = d
					best = j
				}
			}
		}
		s = s*31 + best
	}
	return s
}
