package machine

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/progs"
)

func mustSumFork(t *testing.T, n int) *isa.Program {
	t.Helper()
	p, err := progs.BuildSumFork(progs.Vector(n))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFifoSlideAndOrder(t *testing.T) {
	var f fifo[int]
	for i := 0; i < 100; i++ {
		f.Push(i)
	}
	for i := 0; i < 100; i++ {
		if f.Len() != 100-i {
			t.Fatalf("len %d, want %d", f.Len(), 100-i)
		}
		if got := f.Pop(); got != i {
			t.Fatalf("pop %d, want %d", got, i)
		}
	}
	if !f.Empty() {
		t.Fatal("queue not empty after draining")
	}
	// Interleaved push/pop must keep FIFO order across the slide compaction.
	next, expect := 0, 0
	for round := 0; round < 500; round++ {
		f.Push(next)
		next++
		f.Push(next)
		next++
		if got := f.Pop(); got != expect {
			t.Fatalf("round %d: pop %d, want %d", round, got, expect)
		}
		expect++
	}
	for !f.Empty() {
		if got := f.Pop(); got != expect {
			t.Fatalf("drain: pop %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained to %d, pushed %d", expect, next)
	}
}

func TestFifoRemoveKeepsOrder(t *testing.T) {
	var f fifo[int]
	for i := 0; i < 6; i++ {
		f.Push(i)
	}
	f.Pop()     // head offset non-zero
	f.Remove(2) // removes live element index 2 == value 3
	want := []int{1, 2, 4, 5}
	if f.Len() != len(want) {
		t.Fatalf("len %d, want %d", f.Len(), len(want))
	}
	for i, w := range want {
		if got := f.At(i); got != w {
			t.Errorf("At(%d) = %d, want %d", i, got, w)
		}
	}
}

// TestMaatTable drives the open-addressed MAAT directly: insert, overwrite,
// growth-with-rehash and the recycled-backing path. Keys are multiples of 8
// (word addresses), the worst case for a low-bit hash — the table must stay
// correct and loadable anyway.
func TestMaatTable(t *testing.T) {
	m := &Machine{}
	var tbl maat
	cell := make([]readyCell, 600)
	vals := make([]uint64, 600)
	prod := func(i int) producer { return producer{t: &cell[i], v: &vals[i]} }

	const n = 512 // several growth rounds past maatMinSize
	for i := 0; i < n; i++ {
		m.maatPut(&tbl, uint64(i*8), prod(i))
	}
	if tbl.n != n {
		t.Fatalf("table count %d, want %d", tbl.n, n)
	}
	for i := 0; i < n; i++ {
		p := tbl.get(uint64(i * 8))
		if p == nil || p.t != &cell[i] {
			t.Fatalf("key %d: wrong or missing producer", i*8)
		}
	}
	if tbl.get(uint64(n*8)) != nil {
		t.Fatal("get of absent key returned a producer")
	}
	// Overwrite must replace, not duplicate.
	m.maatPut(&tbl, 0, prod(599))
	if tbl.n != n {
		t.Fatalf("overwrite changed count to %d", tbl.n)
	}
	if p := tbl.get(0); p == nil || p.t != &cell[599] {
		t.Fatal("overwrite did not take")
	}

	// Release, then equip a new table: it must reuse the recycled backing
	// (free list LIFO — growth already pooled each superseded array) and
	// come back empty.
	released := tbl.entries
	pooled := len(m.maatFree)
	m.releaseMaat(&tbl)
	if tbl.entries != nil || len(m.maatFree) != pooled+1 {
		t.Fatal("release did not pool the backing array")
	}
	var tbl2 maat
	m.acquireMaat(&tbl2)
	if len(m.maatFree) != pooled || &tbl2.entries[0] != &released[0] {
		t.Fatal("acquire did not reuse the recycled backing")
	}
	if tbl2.get(0) != nil || tbl2.n != 0 {
		t.Fatal("recycled table not empty")
	}
	m.maatPut(&tbl2, 40, prod(7))
	if p := tbl2.get(40); p == nil || p.t != &cell[7] {
		t.Fatal("recycled table lost an insert")
	}
}

// TestArenaChunkBoundaries drives an arena across several chunk boundaries —
// the regime paper-scale (big-N) runs live in, where one simulation allocates
// thousands of DynInsts — and checks that every handed-out object is distinct,
// zeroed, and survives a reset/refill cycle and a release to the free list
// without aliasing.
func TestArenaChunkBoundaries(t *testing.T) {
	const chunk = 4
	list := &chunkList[int64]{size: chunk}
	a := arena[int64]{list: list}
	const n = chunk*3 + 2 // three full chunks and a partial fourth
	seen := make(map[*int64]bool, n)
	for i := 0; i < n; i++ {
		p := a.alloc()
		if *p != 0 {
			t.Fatalf("alloc %d: not zeroed (%d)", i, *p)
		}
		if seen[p] {
			t.Fatalf("alloc %d: pointer handed out twice", i)
		}
		seen[p] = true
		*p = int64(i + 1)
	}
	if len(a.chunks) != 4 {
		t.Fatalf("chunks %d, want 4", len(a.chunks))
	}
	a.reset()
	// The refill must reuse the same chunk storage, scrubbed.
	for i := 0; i < n; i++ {
		p := a.alloc()
		if *p != 0 {
			t.Fatalf("post-reset alloc %d: stale value %d", i, *p)
		}
		if !seen[p] {
			t.Fatalf("post-reset alloc %d: fresh chunk instead of reuse", i)
		}
	}
	if len(a.chunks) != 4 {
		t.Fatalf("refill grew the arena to %d chunks", len(a.chunks))
	}
	a.reset()
	for i := 0; i < n; i++ {
		*a.alloc() = -1
	}
	owned := make(map[*int64]bool, chunk*4)
	for _, ch := range a.chunks {
		for i := range ch {
			owned[&ch[i]] = true
		}
	}
	a.release()
	if len(a.chunks) != 0 || len(list.free) != 4 {
		t.Fatalf("release left %d chunks in the arena and %d on the list, want 0 and 4", len(a.chunks), len(list.free))
	}
	// A second arena on the same list runs on the released chunks, scrubbed.
	b := arena[int64]{list: list}
	for i := 0; i < chunk*4; i++ {
		p := b.alloc()
		if *p != 0 {
			t.Fatalf("alloc %d from released chunks: stale value %d", i, *p)
		}
		if !owned[p] {
			t.Fatalf("alloc %d: fresh chunk while released ones were listed", i)
		}
	}
	if len(list.free) != 0 {
		t.Fatalf("%d chunks left on the list after taking all 4", len(list.free))
	}
}

// TestMaatBigN scales the alias table to thousands of keys — the footprint a
// paper-scale section can accumulate — across several growth/rehash rounds,
// then checks the recycle path hands the big backing to the next table.
func TestMaatBigN(t *testing.T) {
	m := &Machine{}
	var tbl maat
	const n = 5000
	cell := make([]readyCell, n)
	for i := 0; i < n; i++ {
		m.maatPut(&tbl, uint64(i*8), producer{t: &cell[i]})
	}
	if tbl.n != n {
		t.Fatalf("table count %d, want %d", tbl.n, n)
	}
	for i := 0; i < n; i++ {
		p := tbl.get(uint64(i * 8))
		if p == nil || p.t != &cell[i] {
			t.Fatalf("key %d: wrong or missing producer after growth", i*8)
		}
	}
	if got := len(tbl.entries); got < n*4/3 {
		t.Fatalf("load factor bound violated: %d entries for %d keys", got, n)
	}
	m.releaseMaat(&tbl)
	var tbl2 maat
	m.acquireMaat(&tbl2)
	if len(tbl2.entries) < n {
		t.Fatalf("recycled backing has %d entries, want the big array back", len(tbl2.entries))
	}
	for i := range tbl2.entries {
		if tbl2.entries[i].p.valid() {
			t.Fatalf("recycled entry %d not scrubbed", i)
		}
	}
}

// TestResetReproduces pins Machine.Reset's contract: a warmed machine re-runs
// the same program to a bit-identical Result, under both schedulers.
func TestResetReproduces(t *testing.T) {
	for _, dense := range []bool{false, true} {
		p := mustSumFork(t, 40)
		cfg := DefaultConfig(5)
		cfg.Dense = dense
		m, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		first, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			m.Reset()
			again, err := m.Run()
			if err != nil {
				t.Fatalf("dense=%v round %d: %v", dense, round, err)
			}
			checkIdentical(t, "reset re-run", first, again)
		}
	}
}

// TestResetAfterError: Reset must also recover a machine whose run aborted
// (sections not dumped, requests possibly in flight) back to a clean,
// runnable state.
func TestResetAfterError(t *testing.T) {
	p := mustSumFork(t, 40)
	cfg := DefaultConfig(2)
	cfg.MaxCycles = 10 // abort mid-run
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("truncated run unexpectedly succeeded")
	}
	m.Reset()
	m.cfg.MaxCycles = 100 << 20
	got, err := m.Run()
	if err != nil {
		t.Fatalf("run after error+Reset: %v", err)
	}
	fresh, err := New(p, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, "reset after error", want, got)
}

// parkedState counts the waiter-list heads and links set anywhere in m's
// arenas — every chunk, used or not — so a stale list cannot hide in the
// region a rewound arena will hand out next.
func parkedState(m *Machine) (heads, links int) {
	for _, ch := range m.dyns.chunks {
		for i := range ch {
			d := &ch[i]
			if d.nextWait != nil {
				links++
			}
			if d.tMA.wait != nil {
				heads++
			}
			for j := range d.wrAt {
				if d.wrAt[j].wait != nil {
					heads++
				}
			}
		}
	}
	for _, ch := range m.slots.chunks {
		for i := range ch {
			if ch[i].wait != nil {
				heads++
			}
		}
	}
	return heads, links
}

// TestResetClearsWaiterLists: a run cut short leaves entries parked on
// producer cells that were never written. Reset must leave no waiter-list
// head or link behind (the arena rewind zeroes them with the cells), so the
// next run starts with every entry on its queue and matches a fresh run.
func TestResetClearsWaiterLists(t *testing.T) {
	p := mustSumFork(t, 40)
	cfg := DefaultConfig(4)
	cfg.MaxCycles = 60 // abort while consumers wait on in-flight producers
	m, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("truncated run unexpectedly succeeded")
	}
	if heads, links := parkedState(m); heads == 0 {
		t.Fatalf("the truncated run parked nothing (heads %d, links %d): the test no longer exercises Reset", heads, links)
	}
	m.Reset()
	if heads, links := parkedState(m); heads != 0 || links != 0 {
		t.Fatalf("after Reset: %d waiter-list heads and %d links left", heads, links)
	}
	m.cfg.MaxCycles = 100 << 20
	got, err := m.Run()
	if err != nil {
		t.Fatalf("run after Reset: %v", err)
	}
	fresh, err := New(p, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, "reset with parked entries", want, got)
}
