package machine

import (
	"math/bits"
	"sync"

	"repro/internal/isa"
)

// This file holds the allocation-free plumbing behind the simulated hot
// path: the generic sliding-window FIFO backing the per-core queues, the
// arenas that pool DynInst and slot objects, the open-addressed memory
// address alias table recycled through a per-machine free list, and the
// request/section pools. A profile of the previous implementation showed
// ~205k heap allocations per quickSort simulation — a fresh *DynInst per
// dynamic instruction, a map per rename/execute evaluation, interface boxing
// on every alias-table insert — with the GC charging every simulated cycle.
// Steady-state simulation on a warmed machine (see Machine.Reset) now
// allocates nothing per cycle, and since the arena chunks are shared
// process-wide, a fresh machine allocates no per-instruction arena memory
// once some earlier run has released enough chunks; the regression tests in
// internal/bench pin both properties.

// ---------------------------------------------------------------- fifo ----

// fifo is a first-in-first-out queue backed by a sliding window over one
// reusable buffer: Pop advances a head index instead of re-slicing away the
// front (which leaks capacity and forces append to reallocate), and the
// dead front region is compacted amortized O(1). The zero value is ready to
// use.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) Len() int    { return len(f.buf) - f.head }
func (f *fifo[T]) Empty() bool { return f.head >= len(f.buf) }

// Front returns the oldest element. The queue must not be empty.
func (f *fifo[T]) Front() T { return f.buf[f.head] }

// At returns the i-th element counting from the front.
func (f *fifo[T]) At(i int) T { return f.buf[f.head+i] }

// Push appends v at the back.
func (f *fifo[T]) Push(v T) {
	if f.head == len(f.buf) {
		// Empty: rewind so the whole capacity is reusable.
		f.buf = f.buf[:0]
		f.head = 0
	}
	f.buf = append(f.buf, v)
}

// Pop removes and returns the front element. The vacated slot is zeroed so
// pooled pointers are not pinned, and the dead front region is slid out once
// it dominates the buffer.
func (f *fifo[T]) Pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	} else if f.head > 32 && f.head > len(f.buf)/2 {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	return v
}

// Remove deletes the i-th element counting from the front, preserving the
// order of the rest. O(live length) — used only for the tiny per-core
// suspended list, whose scan order is the suspension order.
func (f *fifo[T]) Remove(i int) T {
	var zero T
	idx := f.head + i
	v := f.buf[idx]
	copy(f.buf[idx:], f.buf[idx+1:])
	f.buf[len(f.buf)-1] = zero
	f.buf = f.buf[:len(f.buf)-1]
	return v
}

// Reset empties the queue, keeping the buffer for reuse.
func (f *fifo[T]) Reset() {
	clear(f.buf)
	f.buf = f.buf[:0]
	f.head = 0
}

// swapRemove deletes q[i] in O(1) by moving the last element into its place.
// Used for the issue and load-store queues, whose storage order is
// irrelevant: issue selection orders candidates by the explicit
// (section position, ordinal) comparison, never by queue position.
func swapRemove(q *[]*DynInst, i int) {
	s := *q
	last := len(s) - 1
	s[i] = s[last]
	s[last] = nil
	*q = s[:last]
}

// -------------------------------------------------------------- arenas ----

// chunkList is a process-wide free list of arena chunks of one element type
// and one fixed length. Every machine's arena of that type takes its chunks
// here and gives them all back when its run completes (Machine.Run), so the
// per-instruction memory of one simulation is recycled by the next, on this
// machine or any other, instead of being left to the GC. Every chunk on the
// list is all zero. The list never shrinks: it holds the peak number of
// chunks that were ever in use at once across the process.
//
// It is a plain mutex-guarded stack, not a sync.Pool: a sync.Pool drops its
// contents at every other GC, so the next runs would allocate their arenas
// afresh exactly when allocation is most expensive.
type chunkList[T any] struct {
	size int // elements per chunk
	mu   sync.Mutex
	free [][]T
}

// The two arena element types' free lists. DynInst chunks hold one object
// per dynamic instruction, slot chunks the renaming-slot cells.
var (
	dynChunks  = chunkList[DynInst]{size: 256}
	slotChunks = chunkList[slot]{size: 512}
)

// get pops a zero chunk, or makes one when the list is empty.
func (l *chunkList[T]) get() []T {
	l.mu.Lock()
	if k := len(l.free) - 1; k >= 0 {
		c := l.free[k]
		l.free[k] = nil
		l.free = l.free[:k]
		l.mu.Unlock()
		return c
	}
	l.mu.Unlock()
	return make([]T, l.size)
}

// put pushes zero chunks back on the list.
func (l *chunkList[T]) put(chunks [][]T) {
	l.mu.Lock()
	l.free = append(l.free, chunks...)
	l.mu.Unlock()
}

// arena hands out T objects from chunks taken from its chunkList. Handed-out
// objects are always zero, but the scrubbing happens in bulk — chunks come
// zero from the list, and reset clears the used prefix wholesale — not per
// alloc, which the profile showed charging every fetched instruction with a
// ~600-byte memclr. Objects are never freed individually: both uses
// (DynInst, which sections reference until the Result is built; slot cells,
// which can outlive their section via fork copies) stay referenced until the
// run is over. A completed run then releases the whole arena to the list; a
// failed run keeps its chunks until Machine.Reset rewinds them in place.
type arena[T any] struct {
	list     *chunkList[T]
	chunks   [][]T
	ci, used int
}

func (a *arena[T]) alloc() *T {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, a.list.get())
	}
	c := a.chunks[a.ci]
	p := &c[a.used]
	a.used++
	if a.used == len(c) {
		a.ci++
		a.used = 0
	}
	return p
}

// reset rewinds the arena over its own chunks, zeroing every handed-out
// object (the rest of each chunk is still zero).
func (a *arena[T]) reset() {
	for i := 0; i < a.ci; i++ {
		clear(a.chunks[i])
	}
	if a.ci < len(a.chunks) {
		clear(a.chunks[a.ci][:a.used])
	}
	a.ci, a.used = 0, 0
}

// release scrubs the arena and hands every chunk back to the list, leaving
// the arena empty. No object it handed out may be referenced afterwards.
func (a *arena[T]) release() {
	a.reset()
	a.list.put(a.chunks)
	clear(a.chunks)
	a.chunks = a.chunks[:0]
}

// ---------------------------------------------------------------- maat ----

// maatMinSize is the smallest MAAT backing array, a power of two.
const maatMinSize = 16

// maat is the per-section Memory Address Alias Table: an open-addressed,
// linear-probing hash table from data addresses to producers, replacing the
// previous map[uint64]producer. The backing array is recycled through the
// machine's free list when the owning section dumps (Machine.releaseMaat),
// so in steady state sections are born with a right-sized table and no
// per-section map allocation happens. An entry whose producer is
// invalid (nil ready cell) is empty — producers are only ever inserted
// valid.
type maat struct {
	entries []maatEntry
	n       int
	shift   uint8 // 64 - log2(len(entries)); index = hash >> shift
}

type maatEntry struct {
	p   producer
	key uint64
}

// maatHash is Fibonacci multiplicative hashing. Indexing uses the high bits
// (via the shift) — data addresses are mostly 8-byte aligned, so the low
// product bits carry no entropy.
func maatHash(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 }

func maatShift(size int) uint8 { return uint8(64 - bits.TrailingZeros(uint(size))) }

// get returns a pointer to the producer stored for key, or nil.
func (t *maat) get(key uint64) *producer {
	if t.n == 0 {
		return nil
	}
	i := maatHash(key) >> t.shift
	for {
		e := &t.entries[i]
		if !e.p.valid() {
			return nil
		}
		if e.key == key {
			return &e.p
		}
		i++
		if i == uint64(len(t.entries)) {
			i = 0
		}
	}
}

// maatPut inserts or overwrites key's producer in s's table, growing through
// the machine's recycled backing arrays when the load factor passes 3/4.
func (m *Machine) maatPut(t *maat, key uint64, p producer) {
	if len(t.entries) == 0 || (t.n+1)*4 > len(t.entries)*3 {
		m.maatGrow(t)
	}
	i := maatHash(key) >> t.shift
	for {
		e := &t.entries[i]
		if !e.p.valid() {
			e.key = key
			e.p = p
			t.n++
			return
		}
		if e.key == key {
			e.p = p
			return
		}
		i++
		if i == uint64(len(t.entries)) {
			i = 0
		}
	}
}

// maatGrow doubles t's backing array (or installs the first one) and
// rehashes. The old array goes back to the free list for the next section.
func (m *Machine) maatGrow(t *maat) {
	want := maatMinSize
	if n := len(t.entries) * 2; n > want {
		want = n
	}
	old := t.entries
	t.entries = make([]maatEntry, want)
	t.shift = maatShift(want)
	t.n = 0
	for i := range old {
		if old[i].p.valid() {
			m.maatPut(t, old[i].key, old[i].p)
		}
	}
	if old != nil {
		clear(old)
		m.maatFree = append(m.maatFree, old)
	}
}

// acquireMaat equips t with a recycled backing array if one is available
// (already cleared at release time); otherwise the table stays empty until
// the first insert grows it.
func (m *Machine) acquireMaat(t *maat) {
	t.n = 0
	if k := len(m.maatFree) - 1; k >= 0 {
		t.entries = m.maatFree[k]
		m.maatFree[k] = nil
		m.maatFree = m.maatFree[:k]
		t.shift = maatShift(len(t.entries))
	} else {
		t.entries = nil
		t.shift = 0
	}
}

// releaseMaat clears t and returns its backing array to the free list. Called
// when the owning section dumps — after that point no renaming request can
// search the section (searchTarget skips dumped sections, and dumpOldest
// refuses to dump a section with requests still at it), so the table is dead.
func (m *Machine) releaseMaat(t *maat) {
	if t.entries == nil {
		return
	}
	clear(t.entries)
	m.maatFree = append(m.maatFree, t.entries)
	t.entries = nil
	t.n = 0
	t.shift = 0
}

// --------------------------------------------------------------- pools ----

// acquireSection returns a recycled or fresh Section shell with a MAAT
// backing attached. Sections are recycled only once the run is over
// (Machine.releaseRun): the final Result is built from every section of the
// run, so they stay live until then.
func (m *Machine) acquireSection() *Section {
	var s *Section
	if k := len(m.secFree) - 1; k >= 0 {
		s = m.secFree[k]
		m.secFree[k] = nil
		m.secFree = m.secFree[:k]
	} else {
		s = &Section{}
	}
	m.acquireMaat(&s.maat)
	return s
}

// releaseSection scrubs s and pools it, keeping the instruction slice and
// address-rename queue capacity for reuse.
func (m *Machine) releaseSection(s *Section) {
	m.releaseMaat(&s.maat)
	clear(s.Insts)
	insts := s.Insts[:0]
	arQ := s.arQ
	arQ.Reset()
	*s = Section{Insts: insts, arQ: arQ}
	m.secFree = append(m.secFree, s)
}

// newRequest returns a pooled or fresh renaming request.
func (m *Machine) newRequest() *request {
	if k := len(m.reqFree) - 1; k >= 0 {
		r := m.reqFree[k]
		m.reqFree[k] = nil
		m.reqFree = m.reqFree[:k]
		return r
	}
	return &request{}
}

// releaseRequest scrubs r (dropping its section and slot references) and
// pools it.
func (m *Machine) releaseRequest(r *request) {
	*r = request{}
	m.reqFree = append(m.reqFree, r)
}

// regReads resolves the instruction's deduplicated register reads into the
// machine's scratch buffer (no per-call slice allocation).
func (m *Machine) regReads(in *isa.Instruction) []isa.Reg {
	buf := in.RegReads(m.readBuf[:0])
	m.readBuf = buf[:0]
	return dedupRegs(buf)
}

// regWriteSet is regReads' counterpart for register writes.
func (m *Machine) regWriteSet(in *isa.Instruction) []isa.Reg {
	buf := in.RegWrites(m.writeBuf[:0])
	m.writeBuf = buf[:0]
	return dedupRegs(buf)
}
