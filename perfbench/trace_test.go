package main

import (
	"sync"
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	rec := &Recorder{}
	op := rec.Add(1, 0, "op", at(0), at(100))
	// Two overlapping children cover [10, 50); a third covers [60, 70).
	a := rec.Add(1, op, "a", at(10), at(40))
	rec.Add(1, op, "b", at(30), at(50))
	rec.Add(1, op, "c", at(60), at(70))
	// A grandchild inside a: counts against a, not against op.
	rec.Add(1, a, "a.inner", at(15), at(25))
	// A child reaching past its parent's end counts only inside it.
	rec.Add(1, op, "late", at(95), at(120))

	self := selfTimes(rec.Spans())
	want := map[int]time.Duration{
		op: 100*time.Millisecond - 40*time.Millisecond - 10*time.Millisecond - 5*time.Millisecond,
		a:  20 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}

	tot := layerTotals(rec.Spans())
	if got := tot["op"].Self; got != 45*time.Millisecond {
		t.Errorf("op self = %v, want 45ms", got)
	}
	if got := tot["a.inner"].Total; got != 10*time.Millisecond {
		t.Errorf("a.inner total = %v, want 10ms", got)
	}
}

func TestSelfTimeIdenticalChildrenCountOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	rec := &Recorder{}
	op := rec.Add(1, 0, "op", t0, t0.Add(10*time.Second))
	rec.Add(1, op, "x", t0.Add(time.Second), t0.Add(3*time.Second))
	rec.Add(1, op, "y", t0.Add(time.Second), t0.Add(3*time.Second))
	if got := selfTimes(rec.Spans())[op]; got != 8*time.Second {
		t.Errorf("self = %v, want 8s", got)
	}
}

func TestRecorderBeginEnd(t *testing.T) {
	rec := &Recorder{}
	root := rec.Begin(7, 0, "op")
	child := rec.Begin(7, root, "cpu.golden")
	time.Sleep(time.Millisecond)
	if d := rec.End(child); d <= 0 {
		t.Errorf("child duration %v", d)
	}
	rec.End(root)
	spans := rec.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	if self := selfTimes(spans)[root]; self < 0 || self >= spans[0].End.Sub(spans[0].Start) {
		t.Errorf("root self %v not below its duration", self)
	}

	var off *Recorder // untraced path: no-ops
	if id := off.Begin(1, 0, "op"); id != 0 || off.End(id) != 0 || off.Spans() != nil {
		t.Error("nil Recorder recorded something")
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	rec := &Recorder{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(op int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				root := rec.Begin(op, 0, "op")
				rec.Add(op, root, "child", time.Now(), time.Now())
				rec.End(root)
			}
		}(g + 1)
	}
	wg.Wait()
	spans := rec.Spans()
	if len(spans) != 800 {
		t.Fatalf("%d spans, want 800", len(spans))
	}
	for _, s := range spans {
		if s.End.Before(s.Start) {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
}
