//go:build ignore

// Benchmark 3 — convexHull/quickHull.
//
// Recursive quickhull over random integer points: for each oriented segment
// (a, b), the farthest point strictly to its left becomes a hull vertex and
// splits the segment. The full point set is rescanned at each call (an
// O(n·h) variant); the checksum folds the hull vertices in recursion order.
// Embedded and lowered by internal/gofront; not compiled into the binary.
package kernels

//repro:array len=n
var px []int64

//repro:array len=n
var py []int64

var hsum uint64

var hcnt uint64

func findhull(ax int64, ay int64, bx int64, by int64) {
	best := int64(0 - 1)
	bestd := int64(0)
	for i := int64(0); i < N; i++ {
		d := (bx-ax)*(py[i]-ay) - (by-ay)*(px[i]-ax)
		if d > bestd {
			bestd = d
			best = i
		}
	}
	if best < 0 {
		return
	}
	hsum = hsum*31 + px[best]*7 + py[best]
	hcnt++
	findhull(ax, ay, px[best], py[best])
	findhull(px[best], py[best], bx, by)
}

//repro:kernel id=3 name=convexHull/quickHull minn=2 inputs=points16
func quickHull() uint64 {
	lo := int64(0)
	hi := int64(0)
	for i := int64(1); i < N; i++ {
		if px[i] < px[lo] || (px[i] == px[lo] && py[i] < py[lo]) {
			lo = i
		}
		if px[i] > px[hi] || (px[i] == px[hi] && py[i] > py[hi]) {
			hi = i
		}
	}
	findhull(px[lo], py[lo], px[hi], py[hi])
	findhull(px[hi], py[hi], px[lo], py[lo])
	return hsum*1000003 + hcnt*31 + lo*7 + hi
}
