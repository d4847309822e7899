package machine

import (
	"testing"
)

// TestProcessRequestsCompaction covers the drain loop's retirement ordering:
// finished requests are compacted out in place, the survivors keep their
// relative order (the protocol steps at most one request per cycle per
// entry, so a shuffle would change which request reaches a section first),
// and retired request objects return to the pool scrubbed.
func TestProcessRequestsCompaction(t *testing.T) {
	m := &Machine{}
	mk := func(tag uint64) *request {
		r := m.newRequest()
		// Far in the future: stepRequest leaves the request untouched, so
		// the test controls exactly which entries retire.
		r.availableAt = 100
		r.addr = tag
		return r
	}
	reqs := []*request{mk(0), mk(1), mk(2), mk(3), mk(4), mk(5)}
	m.reqs = append([]*request{}, reqs...)
	for _, idx := range []int{1, 3, 4} {
		m.reqs[idx].done = true
	}

	m.processRequests()

	want := []uint64{0, 2, 5}
	if len(m.reqs) != len(want) {
		t.Fatalf("%d live requests, want %d", len(m.reqs), len(want))
	}
	for i, tag := range want {
		if m.reqs[i].addr != tag {
			t.Errorf("live[%d] carries tag %d, want %d (order not preserved)", i, m.reqs[i].addr, tag)
		}
	}
	if len(m.reqFree) != 3 {
		t.Fatalf("%d pooled requests, want 3", len(m.reqFree))
	}
	// Pooled requests are scrubbed and reused (LIFO), not re-allocated.
	r := m.newRequest()
	if r != reqs[4] {
		t.Error("newRequest did not reuse the most recently retired request")
	}
	if r.addr != 0 || r.done || r.availableAt != 0 {
		t.Errorf("reused request not scrubbed: %+v", r)
	}

	// A second drain with nothing finished must not move anything.
	before := append([]*request{}, m.reqs...)
	m.processRequests()
	for i := range before {
		if m.reqs[i] != before[i] {
			t.Fatalf("no-op drain moved request %d", i)
		}
	}
}
