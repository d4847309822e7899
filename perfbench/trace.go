package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one point, job or
// workload share their root through Parent links; ID 0 is "no parent".
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

// Tracer keeps spans in memory until the run ends; Write dumps them. It is
// safe for concurrent use.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	seq    int64
	spans  []Span
}

func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Begin opens a span and returns its ID; pass it to Finish. A nil tracer
// records nothing.
func (t *Tracer) Begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	t.spans = append(t.spans, Span{ID: t.seq, Parent: parent, Name: name, Start: now, End: -1})
	return t.seq
}

// Finish closes span id.
func (t *Tracer) Finish(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	// Span IDs are dense and 1-based, so the span sits at index id-1.
	t.spans[id-1].End = now
}

// Record adds a span whose interval the caller measured itself, such as a
// job's queue time read from the server's timestamps.
func (t *Tracer) Record(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	t.spans = append(t.spans, Span{ID: t.seq, Parent: parent, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
}

// Do runs f inside a span.
func (t *Tracer) Do(name string, parent int64, f func()) {
	id := t.Begin(name, parent)
	f()
	t.Finish(id)
}

// LayerTime is a span name's call count and summed self time.
type LayerTime struct {
	Calls int
	Self  time.Duration
}

// MeanMS is the mean self time per call in milliseconds (0 without calls).
func (l LayerTime) MeanMS() float64 {
	if l.Calls == 0 {
		return 0
	}
	return ms(l.Self) / float64(l.Calls)
}

// SelfTimes aggregates by span name each span's self time: its duration
// minus the part of its interval covered by its children.
func (t *Tracer) SelfTimes() map[string]LayerTime {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]LayerTime)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		lt := out[s.Name]
		lt.Calls++
		lt.Self += s.End - s.Start - covered(s, kids[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End >= 0 && b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curA, curB, open = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// Write dumps every span as JSON to path.
func (t *Tracer) Write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
