package pbbs

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/minic"
)

// This file retains, verbatim, the hand-written artifacts of the kernels
// migrated to annotated Go (internal/pbbs/kernels/): the mini-C fmt.Sprintf
// templates, the input generators, and the pure-Go reference checksums they
// shipped with before the migration (renamed with a legacy prefix, plus the
// shared helpers they called). The tests pin the migration four ways at every
// probed n:
//
//  1. the gofront lowering renders byte-identically to the canonicalised
//     legacy template (so the canonical surface is provably unchanged),
//  2. the compiled programs are byte-identical (prog.Encode is what the
//     sweep-v2 cache key and the BENCH_machine.json baselines hash, so
//     cache keys cannot have moved),
//  3. the named input generators reproduce the legacy inputs bit for bit,
//     and
//  4. the interpreter-derived checksum equals the independent legacy
//     reference (sort/map-based or closure-based Go — an algorithmically
//     separate witness).

func legacyQuicksortSource(n int) string {
	return fmt.Sprintf(`
unsigned long a[%d];
void qs(long lo, long hi) {
    if (lo >= hi) return;
    unsigned long p = a[hi];
    long i = lo;
    for (long j = lo; j < hi; j = j + 1) {
        if (a[j] < p) {
            unsigned long t = a[i]; a[i] = a[j]; a[j] = t;
            i = i + 1;
        }
    }
    unsigned long t = a[i]; a[i] = a[hi]; a[hi] = t;
    qs(lo, i - 1);
    qs(i + 1, hi);
}
unsigned long main(void) {
    qs(0, %d);
    unsigned long s = 0;
    for (long i = 0; i < %d; i = i + 1) s = s * 31 + a[i];
    return s;
}`, n, n-1, n)
}

func legacyQuicksortGen(n int, seed uint64) Inputs {
	r := newRNG(seed + 2*0x9e3779b9)
	a := make([]uint64, n)
	for i := range a {
		a[i] = r.uintn(1 << 32)
	}
	return Inputs{"a": a}
}

func legacyQuicksortRef(n int, in Inputs) uint64 {
	a := slices.Clone(in["a"])
	slices.Sort(a)
	var s uint64
	for _, v := range a {
		s = mix(s, v)
	}
	return s
}

func legacyRadixsortSource(n int) string {
	return fmt.Sprintf(`
unsigned long a[%d];
unsigned long b[%d];
unsigned long cnt[256];
unsigned long main(void) {
    unsigned long n = %d;
    for (long pass = 0; pass < 4; pass = pass + 1) {
        unsigned long sh = pass * 8;
        for (long d = 0; d < 256; d = d + 1) cnt[d] = 0;
        for (unsigned long i = 0; i < n; i = i + 1) {
            unsigned long d = a[i] >> sh & 255;
            cnt[d] = cnt[d] + 1;
        }
        unsigned long run = 0;
        for (long d = 0; d < 256; d = d + 1) {
            unsigned long c = cnt[d];
            cnt[d] = run;
            run = run + c;
        }
        for (unsigned long i = 0; i < n; i = i + 1) {
            unsigned long d = a[i] >> sh & 255;
            b[cnt[d]] = a[i];
            cnt[d] = cnt[d] + 1;
        }
        for (unsigned long i = 0; i < n; i = i + 1) a[i] = b[i];
    }
    unsigned long s = 0;
    for (unsigned long i = 0; i < n; i = i + 1) s = s * 31 + a[i];
    return s;
}`, n, n, n)
}

func legacyRadixsortGen(n int, seed uint64) Inputs {
	r := newRNG(seed + 5*0x9e3779b9)
	a := make([]uint64, n)
	for i := range a {
		a[i] = r.uintn(1 << 32)
	}
	return Inputs{"a": a}
}

func legacyRadixsortRef(n int, in Inputs) uint64 {
	a := slices.Clone(in["a"])
	slices.Sort(a)
	var s uint64
	for _, v := range a {
		s = mix(s, v)
	}
	return s
}

func legacyDedupSource(n int) string {
	t, shift := legacyHashTableSize(n)
	return fmt.Sprintf(`
unsigned long a[%d];
unsigned long tab[%d];
unsigned long main(void) {
    unsigned long n = %d;
    unsigned long cnt = 0;
    unsigned long sum = 0;
    for (unsigned long i = 0; i < n; i = i + 1) {
        unsigned long k = a[i] + 1;
        unsigned long h = k * 0x9e3779b97f4a7c15 >> %d;
        while (tab[h] != 0 && tab[h] != k) h = (h + 1) & %d;
        if (tab[h] == 0) {
            tab[h] = k;
            cnt = cnt + 1;
            sum = sum + a[i];
        }
    }
    return cnt * 0x9e3779b97f4a7c15 + sum;
}`, n, t, n, shift, t-1)
}

func legacyDedupGen(n int, seed uint64) Inputs {
	r := newRNG(seed + 10*0x9e3779b9)
	a := make([]uint64, n)
	for i := range a {
		a[i] = r.uintn(uint64(n))
	}
	return Inputs{"a": a}
}

func legacyDedupRef(n int, in Inputs) uint64 {
	seen := make(map[uint64]bool)
	var cnt, sum uint64
	for _, v := range in["a"] {
		if !seen[v] {
			seen[v] = true
			cnt++
			sum += v
		}
	}
	return cnt*0x9e3779b97f4a7c15 + sum
}

// legacyGraphDegree is the edge-to-vertex ratio the legacy graph
// generators used.
const legacyGraphDegree = 3

// legacyRandEdges draws m endpoint pairs over n vertices.
func legacyRandEdges(n, m int, r *rng) (eu, ev []uint64) {
	eu = make([]uint64, m)
	ev = make([]uint64, m)
	for i := 0; i < m; i++ {
		eu[i] = r.uintn(uint64(n))
		ev[i] = r.uintn(uint64(n))
	}
	return eu, ev
}

// legacyCsrFromEdges builds the undirected CSR adjacency of the edge list:
// off has n+1 entries and adj has 2m entries (each edge contributes both
// directions; a self-loop contributes its endpoint twice).
func legacyCsrFromEdges(n int, eu, ev []uint64) (off, adj []uint64) {
	deg := make([]uint64, n)
	for i := range eu {
		deg[eu[i]]++
		deg[ev[i]]++
	}
	off = make([]uint64, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	adj = make([]uint64, 2*len(eu))
	cur := make([]uint64, n)
	copy(cur, off[:n])
	for i := range eu {
		u, v := eu[i], ev[i]
		adj[cur[u]] = v
		cur[u]++
		adj[cur[v]] = u
		cur[v]++
	}
	return off, adj
}

// legacyGenCSRGraph returns CSR inputs {off, adj} for an n-vertex random
// graph.
func legacyGenCSRGraph(n int, seed uint64) Inputs {
	r := newRNG(seed)
	eu, ev := legacyRandEdges(n, legacyGraphDegree*n, r)
	off, adj := legacyCsrFromEdges(n, eu, ev)
	return Inputs{"off": off, "adj": adj}
}

// mix is the checksum accumulator every kernel uses; it must match the
// mini-C expression `s = s * 31 + v` exactly (64-bit wrapping).
func mix(s, v uint64) uint64 { return s*31 + v }

// legacyHashTableSize returns the open-addressing table geometry the hashing
// kernels share for n keys: a power-of-two size keeping the load factor
// <= 1/4, and the matching Fibonacci-hash downshift.
func legacyHashTableSize(n int) (size, shift int) {
	size = nextPow2(4 * n)
	return size, 64 - log2(size)
}

// nextPow2 returns the smallest power of two >= x (and >= 2).
func nextPow2(x int) int {
	p := 2
	for p < x {
		p *= 2
	}
	return p
}

// log2 returns the base-2 logarithm of the power of two p.
func log2(p int) int {
	k := 0
	for 1<<k < p {
		k++
	}
	return k
}

func legacyBfsSource(n int) string {
	m := legacyGraphDegree * n
	return fmt.Sprintf(`
unsigned long off[%d];
unsigned long adj[%d];
unsigned long dist[%d];
unsigned long fifo[%d];
unsigned long main(void) {
    unsigned long n = %d;
    unsigned long none = 0xffffffffffffffff;
    for (unsigned long i = 0; i < n; i = i + 1) dist[i] = none;
    dist[0] = 0;
    fifo[0] = 0;
    unsigned long head = 0;
    unsigned long tail = 1;
    while (head < tail) {
        unsigned long u = fifo[head];
        head = head + 1;
        for (unsigned long e = off[u]; e < off[u + 1]; e = e + 1) {
            unsigned long v = adj[e];
            if (dist[v] == none) {
                dist[v] = dist[u] + 1;
                fifo[tail] = v;
                tail = tail + 1;
            }
        }
    }
    unsigned long s = 0;
    for (unsigned long i = 0; i < n; i = i + 1) s = s * 31 + dist[i];
    return s;
}`, n+1, 2*m, n, n, n)
}

func legacyBfsRef(n int, in Inputs) uint64 {
	off, adj := in["off"], in["adj"]
	const none = ^uint64(0)
	dist := make([]uint64, n)
	for i := range dist {
		dist[i] = none
	}
	fifo := make([]uint64, 0, n)
	dist[0] = 0
	fifo = append(fifo, 0)
	for head := 0; head < len(fifo); head++ {
		u := fifo[head]
		for e := off[u]; e < off[u+1]; e++ {
			v := adj[e]
			if dist[v] == none {
				dist[v] = dist[u] + 1
				fifo = append(fifo, v)
			}
		}
	}
	var s uint64
	for i := 0; i < n; i++ {
		s = mix(s, dist[i])
	}
	return s
}

func legacyQuickhullSource(n int) string {
	return fmt.Sprintf(`
long px[%d];
long py[%d];
unsigned long hsum = 0;
unsigned long hcnt = 0;
void findhull(long ax, long ay, long bx, long by) {
    long best = 0 - 1;
    long bestd = 0;
    for (long i = 0; i < %d; i = i + 1) {
        long d = (bx - ax) * (py[i] - ay) - (by - ay) * (px[i] - ax);
        if (d > bestd) { bestd = d; best = i; }
    }
    if (best < 0) return;
    hsum = hsum * 31 + px[best] * 7 + py[best];
    hcnt = hcnt + 1;
    findhull(ax, ay, px[best], py[best]);
    findhull(px[best], py[best], bx, by);
}
unsigned long main(void) {
    long lo = 0;
    long hi = 0;
    for (long i = 1; i < %d; i = i + 1) {
        if (px[i] < px[lo] || (px[i] == px[lo] && py[i] < py[lo])) lo = i;
        if (px[i] > px[hi] || (px[i] == px[hi] && py[i] > py[hi])) hi = i;
    }
    findhull(px[lo], py[lo], px[hi], py[hi]);
    findhull(px[hi], py[hi], px[lo], py[lo]);
    return hsum * 1000003 + hcnt * 31 + lo * 7 + hi;
}`, n, n, n, n)
}

func legacyQuickhullGen(n int, seed uint64) Inputs {
	r := newRNG(seed + 3*0x9e3779b9)
	px := make([]uint64, n)
	py := make([]uint64, n)
	for i := 0; i < n; i++ {
		px[i] = r.uintn(1 << 16)
		py[i] = r.uintn(1 << 16)
	}
	return Inputs{"px": px, "py": py}
}

func legacyQuickhullRef(n int, in Inputs) uint64 {
	px, py := in["px"], in["py"]
	x := func(i int) int64 { return int64(px[i]) }
	y := func(i int) int64 { return int64(py[i]) }
	var hsum, hcnt uint64
	var findhull func(ax, ay, bx, by int64)
	findhull = func(ax, ay, bx, by int64) {
		best := -1
		var bestd int64
		for i := 0; i < n; i++ {
			d := (bx-ax)*(y(i)-ay) - (by-ay)*(x(i)-ax)
			if d > bestd {
				bestd = d
				best = i
			}
		}
		if best < 0 {
			return
		}
		hsum = hsum*31 + uint64(x(best)*7+y(best))
		hcnt++
		findhull(ax, ay, x(best), y(best))
		findhull(x(best), y(best), bx, by)
	}
	lo, hi := 0, 0
	for i := 1; i < n; i++ {
		if x(i) < x(lo) || (x(i) == x(lo) && y(i) < y(lo)) {
			lo = i
		}
		if x(i) > x(hi) || (x(i) == x(hi) && y(i) > y(hi)) {
			hi = i
		}
	}
	findhull(x(lo), y(lo), x(hi), y(hi))
	findhull(x(hi), y(hi), x(lo), y(lo))
	return hsum*1000003 + hcnt*31 + uint64(lo)*7 + uint64(hi)
}

func legacyDictionarySource(n int) string {
	t, shift := legacyHashTableSize(n)
	return fmt.Sprintf(`
unsigned long keys[%d];
unsigned long qrys[%d];
unsigned long tab[%d];
unsigned long main(void) {
    unsigned long n = %d;
    for (unsigned long i = 0; i < n; i = i + 1) {
        unsigned long k = keys[i] + 1;
        unsigned long h = k * 0x9e3779b97f4a7c15 >> %d;
        while (tab[h] != 0 && tab[h] != k) h = (h + 1) & %d;
        tab[h] = k;
    }
    unsigned long s = 0;
    for (unsigned long i = 0; i < n; i = i + 1) {
        unsigned long k = qrys[i] + 1;
        unsigned long h = k * 0x9e3779b97f4a7c15 >> %d;
        while (tab[h] != 0 && tab[h] != k) h = (h + 1) & %d;
        if (tab[h] == k) s = s * 31 + h;
        else s = s * 31 + 0xdeadbeef;
    }
    return s;
}`, n, n, t, n, shift, t-1, shift, t-1)
}

func legacyDictionaryGen(n int, seed uint64) Inputs {
	r := newRNG(seed + 4*0x9e3779b9)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.uintn(1 << 30)
	}
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

func legacyDictionaryRef(n int, in Inputs) uint64 {
	keys, qrys := in["keys"], in["qrys"]
	t, sh := legacyHashTableSize(n)
	shift := uint(sh)
	mask := uint64(t - 1)
	tab := make([]uint64, t)
	probe := func(k uint64) uint64 {
		h := k * 0x9e3779b97f4a7c15 >> shift
		for tab[h] != 0 && tab[h] != k {
			h = (h + 1) & mask
		}
		return h
	}
	for i := 0; i < n; i++ {
		k := keys[i] + 1
		tab[probe(k)] = k
	}
	var s uint64
	for i := 0; i < n; i++ {
		k := qrys[i] + 1
		h := probe(k)
		if tab[h] == k {
			s = mix(s, h)
		} else {
			s = mix(s, 0xdeadbeef)
		}
	}
	return s
}

func legacyMisSource(n int) string {
	m := legacyGraphDegree * n
	return fmt.Sprintf(`
unsigned long off[%d];
unsigned long adj[%d];
unsigned long flag[%d];
unsigned long main(void) {
    unsigned long n = %d;
    for (unsigned long v = 0; v < n; v = v + 1) {
        unsigned long ok = 1;
        for (unsigned long e = off[v]; e < off[v + 1]; e = e + 1) {
            unsigned long u = adj[e];
            if (u < v && flag[u]) ok = 0;
        }
        flag[v] = ok;
    }
    unsigned long s = 0;
    for (unsigned long v = 0; v < n; v = v + 1) s = s * 31 + flag[v] * (v + 1);
    return s;
}`, n+1, 2*m, n, n)
}

func legacyMisRef(n int, in Inputs) uint64 {
	off, adj := in["off"], in["adj"]
	flag := make([]uint64, n)
	for v := uint64(0); v < uint64(n); v++ {
		ok := uint64(1)
		for e := off[v]; e < off[v+1]; e++ {
			if u := adj[e]; u < v && flag[u] != 0 {
				ok = 0
			}
		}
		flag[v] = ok
	}
	var s uint64
	for v := uint64(0); v < uint64(n); v++ {
		s = mix(s, flag[v]*(v+1))
	}
	return s
}

func legacyMatchingSource(n int) string {
	m := legacyGraphDegree * n
	return fmt.Sprintf(`
unsigned long eu[%d];
unsigned long ev[%d];
unsigned long mate[%d];
unsigned long main(void) {
    unsigned long m = %d;
    unsigned long n = %d;
    unsigned long s = 0;
    for (unsigned long e = 0; e < m; e = e + 1) {
        unsigned long u = eu[e];
        unsigned long v = ev[e];
        if (u != v && mate[u] == 0 && mate[v] == 0) {
            mate[u] = v + 1;
            mate[v] = u + 1;
            s = s * 31 + e;
        }
    }
    for (unsigned long v = 0; v < n; v = v + 1) s = s * 31 + mate[v];
    return s;
}`, m, m, n, m, n)
}

func legacyMatchingGen(n int, seed uint64) Inputs {
	r := newRNG(seed + 7*0x9e3779b9)
	eu, ev := legacyRandEdges(n, legacyGraphDegree*n, r)
	return Inputs{"eu": eu, "ev": ev}
}

func legacyMatchingRef(n int, in Inputs) uint64 {
	eu, ev := in["eu"], in["ev"]
	mate := make([]uint64, n)
	var s uint64
	for e := range eu {
		u, v := eu[e], ev[e]
		if u != v && mate[u] == 0 && mate[v] == 0 {
			mate[u] = v + 1
			mate[v] = u + 1
			s = mix(s, uint64(e))
		}
	}
	for v := 0; v < n; v++ {
		s = mix(s, mate[v])
	}
	return s
}

func legacyKruskalSource(n int) string {
	m := legacyGraphDegree * n
	return fmt.Sprintf(`
unsigned long eu[%d];
unsigned long ev[%d];
unsigned long ew[%d];
unsigned long parent[%d];
unsigned long find(unsigned long x) {
    while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}
void qs(long lo, long hi) {
    if (lo >= hi) return;
    unsigned long p = ew[hi];
    long i = lo;
    for (long j = lo; j < hi; j = j + 1) {
        if (ew[j] < p) {
            unsigned long t = ew[i]; ew[i] = ew[j]; ew[j] = t;
            t = eu[i]; eu[i] = eu[j]; eu[j] = t;
            t = ev[i]; ev[i] = ev[j]; ev[j] = t;
            i = i + 1;
        }
    }
    unsigned long t = ew[i]; ew[i] = ew[hi]; ew[hi] = t;
    t = eu[i]; eu[i] = eu[hi]; eu[hi] = t;
    t = ev[i]; ev[i] = ev[hi]; ev[hi] = t;
    qs(lo, i - 1);
    qs(i + 1, hi);
}
unsigned long main(void) {
    unsigned long n = %d;
    unsigned long m = %d;
    for (unsigned long v = 0; v < n; v = v + 1) parent[v] = v;
    qs(0, %d);
    unsigned long w = 0;
    unsigned long taken = 0;
    for (unsigned long e = 0; e < m; e = e + 1) {
        unsigned long ru = find(eu[e]);
        unsigned long rv = find(ev[e]);
        if (ru != rv) {
            parent[ru] = rv;
            w = w + ew[e];
            taken = taken + 1;
        }
    }
    return w * 0x9e3779b97f4a7c15 + taken;
}`, m, m, m, n, n, m, m-1)
}

func legacyKruskalGen(n int, seed uint64) Inputs {
	r := newRNG(seed + 8*0x9e3779b9)
	m := legacyGraphDegree * n
	eu, ev := legacyRandEdges(n, m, r)
	ew := make([]uint64, m)
	for i := range ew {
		ew[i] = r.uintn(1 << 40)
	}
	return Inputs{"eu": eu, "ev": ev, "ew": ew}
}

func legacyKruskalRef(n int, in Inputs) uint64 {
	eu, ev, ew := in["eu"], in["ev"], in["ew"]
	order := make([]int, len(ew))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ew[order[a]] < ew[order[b]] })
	parent := make([]uint64, n)
	for v := range parent {
		parent[v] = uint64(v)
	}
	find := func(x uint64) uint64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var w, taken uint64
	for _, e := range order {
		ru, rv := find(eu[e]), find(ev[e])
		if ru != rv {
			parent[ru] = rv
			w += ew[e]
			taken++
		}
	}
	return w*0x9e3779b97f4a7c15 + taken
}

func legacyNnSource(n int) string {
	return fmt.Sprintf(`
long px[%d];
long py[%d];
unsigned long main(void) {
    unsigned long s = 0;
    for (long i = 0; i < %d; i = i + 1) {
        long best = 0 - 1;
        long bd = 0x7fffffffffffffff;
        for (long j = 0; j < %d; j = j + 1) {
            if (j != i) {
                long dx = px[i] - px[j];
                long dy = py[i] - py[j];
                long d = dx * dx + dy * dy;
                if (d < bd) { bd = d; best = j; }
            }
        }
        s = s * 31 + best;
    }
    return s;
}`, n, n, n, n)
}

func legacyNnGen(n int, seed uint64) Inputs {
	r := newRNG(seed + 9*0x9e3779b9)
	px := make([]uint64, n)
	py := make([]uint64, n)
	for i := 0; i < n; i++ {
		px[i] = r.uintn(1 << 20)
		py[i] = r.uintn(1 << 20)
	}
	return Inputs{"px": px, "py": py}
}

func legacyNnRef(n int, in Inputs) uint64 {
	px, py := in["px"], in["py"]
	var s uint64
	for i := 0; i < n; i++ {
		best := int64(-1)
		bd := int64(math.MaxInt64)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dx := int64(px[i]) - int64(px[j])
			dy := int64(py[i]) - int64(py[j])
			if d := dx*dx + dy*dy; d < bd {
				bd = d
				best = int64(j)
			}
		}
		s = mix(s, uint64(best))
	}
	return s
}

var migrated = []struct {
	id     int
	source func(int) string
	gen    func(int, uint64) Inputs
	ref    func(int, Inputs) uint64
}{
	{2, legacyQuicksortSource, legacyQuicksortGen, legacyQuicksortRef},
	{5, legacyRadixsortSource, legacyRadixsortGen, legacyRadixsortRef},
	{10, legacyDedupSource, legacyDedupGen, legacyDedupRef},
	{1, legacyBfsSource, func(n int, seed uint64) Inputs { return legacyGenCSRGraph(n, seed+1*0x9e3779b9) }, legacyBfsRef},
	{3, legacyQuickhullSource, legacyQuickhullGen, legacyQuickhullRef},
	{4, legacyDictionarySource, legacyDictionaryGen, legacyDictionaryRef},
	{6, legacyMisSource, func(n int, seed uint64) Inputs { return legacyGenCSRGraph(n, seed+6*0x9e3779b9) }, legacyMisRef},
	{7, legacyMatchingSource, legacyMatchingGen, legacyMatchingRef},
	{8, legacyKruskalSource, legacyKruskalGen, legacyKruskalRef},
	{9, legacyNnSource, legacyNnGen, legacyNnRef},
}

var migrationSizes = []int{2, 3, 5, 8, 17, 33, 64, 100}

func TestMigratedKernelsMatchLegacySources(t *testing.T) {
	for _, m := range migrated {
		k, err := ByID(m.id)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range migrationSizes {
			legacy := m.source(n)
			lprog, err := minic.Parse(legacy)
			if err != nil {
				t.Fatalf("%s: parsing legacy source at n=%d: %v", k.Name, n, err)
			}
			want := minic.Format(lprog)
			got, err := k.Source(n)
			if err != nil {
				t.Fatalf("%s: Source(%d): %v", k.Name, n, err)
			}
			if got != want {
				t.Errorf("%s at n=%d: lowered source differs from canonicalised legacy template\n--- legacy\n%s\n--- lowered\n%s",
					k.Name, n, want, got)
			}
			for _, mode := range []minic.Mode{minic.ModeCall, minic.ModeFork} {
				lp, err := minic.Compile(legacy, mode)
				if err != nil {
					t.Fatalf("%s: compiling legacy at n=%d: %v", k.Name, n, err)
				}
				np, err := k.Build(n, mode)
				if err != nil {
					t.Fatalf("%s: Build(%d): %v", k.Name, n, err)
				}
				if !bytes.Equal(lp.Encode(), np.Encode()) {
					t.Errorf("%s at n=%d mode=%v: compiled program changed (sweep cache keys would move)", k.Name, n, mode)
				}
			}
		}
	}
}

func TestMigratedKernelsMatchLegacyGenAndRef(t *testing.T) {
	for _, m := range migrated {
		k, err := ByID(m.id)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range migrationSizes {
			for _, seed := range []uint64{1, 2, 3, 12345} {
				legacyIn := m.gen(n, seed)
				in := k.Gen(n, seed)
				if !reflect.DeepEqual(in, legacyIn) {
					t.Errorf("%s at n=%d seed=%d: generator diverges from the legacy inputs", k.Name, n, seed)
					continue
				}
				want := m.ref(n, legacyIn)
				got, err := k.Ref(n, in)
				if err != nil {
					t.Fatalf("%s: Ref(%d): %v", k.Name, n, err)
				}
				if got != want {
					t.Errorf("%s at n=%d seed=%d: interpreted checksum %d, legacy reference %d", k.Name, n, seed, got, want)
				}
			}
		}
	}
}
