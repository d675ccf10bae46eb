package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans of one op share Op; Parent is the ID
// of the enclosing span (0 for an op's root span).
type Span struct {
	ID     int
	Parent int
	Op     int
	Name   string
	Start  time.Time
	End    time.Time
}

func (s Span) dur() time.Duration { return s.End.Sub(s.Start) }

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced code paths can share call sites.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// Begin opens a span and returns its ID (0 on a nil Recorder).
func (r *Recorder) Begin(op, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// End closes the span id and returns its duration.
func (r *Recorder) End(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	return r.spans[id-1].dur()
}

// Add records an interval measured elsewhere (client-side event arrivals)
// and returns its ID.
func (r *Recorder) Add(op, parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes maps each span ID to its self time: its duration minus the
// part of its interval covered by its children. Children may nest and
// overlap (concurrent calls); overlapping coverage counts once, and a
// child reaching outside its parent counts only inside it.
func selfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// [start, end].
func covered(start, end time.Time, kids []Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// layerTotal sums, for one span name, the durations, self times and number
// of spans recorded under it.
type layerTotal struct {
	Total, Self time.Duration
	Calls       int
}

func layerTotals(spans []Span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := map[string]*layerTotal{}
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &layerTotal{}
			out[s.Name] = t
		}
		t.Total += s.dur()
		t.Self += self[s.ID]
		t.Calls++
	}
	return out
}
