package main

import "testing"

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 10, ok: false},
		{n: 19, ok: false},
		{n: 20, want: 50, ok: true},   // rank 10, 10 beyond
		{n: 39, want: 50, ok: true},   // p75: rank 30, 9 beyond
		{n: 40, want: 75, ok: true},   // rank 30, 10 beyond
		{n: 99, want: 75, ok: true},   // p90: rank 90, 9 beyond
		{n: 100, want: 90, ok: true},  // rank 90, 10 beyond
		{n: 200, want: 95, ok: true},  // rank 190, 10 beyond
		{n: 999, want: 95, ok: true},  // p99: rank 990, 9 beyond
		{n: 1000, want: 99, ok: true}, // rank 990, 10 beyond
		{n: 10000, want: 99.9, ok: true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok {
			if beyond := c.n - rank(got, c.n); beyond < minBeyond {
				t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, got, beyond)
			}
		}
	}
}

func TestSummarizeTail(t *testing.T) {
	// 40 samples 1..40 ms: p75 has rank 30, so the tail is 30 ms with the
	// 10 samples 31..40 beyond it.
	var ms []float64
	for i := 40; i >= 1; i-- {
		ms = append(ms, float64(i))
	}
	s := summarize(ms)
	if s.N != 40 || s.P50 != 20.5 || s.TailP != 75 || s.Tail != 30 || s.Beyond != 10 {
		t.Errorf("summarize = %+v", s)
	}
	// Too few samples for any ladder percentile: the tail is the maximum.
	s = summarize([]float64{3, 1, 2})
	if s.TailP != 100 || s.Tail != 3 || s.Beyond != 0 {
		t.Errorf("summarize(3 samples) = %+v", s)
	}
}

func TestPercentileOfRepeatedPassesIsStable(t *testing.T) {
	// A run measures whole passes; a ladder percentile of k copies of a
	// pass is the same value for every k in the band that selects it.
	pass := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11, 15, 13, 12, 14, 20, 17, 16, 19, 18}
	var want float64
	for k := 2; k <= 4; k++ {
		var all []float64
		for i := 0; i < k; i++ {
			all = append(all, pass...)
		}
		s := summarize(all)
		if s.TailP != 75 {
			t.Fatalf("%d passes: tail percentile %v, want 75", k, s.TailP)
		}
		if k == 2 {
			want = s.Tail
		} else if s.Tail != want {
			t.Errorf("%d passes: tail %v, want %v", k, s.Tail, want)
		}
		if s.P50 != 10.5 {
			t.Errorf("%d passes: p50 %v, want 10.5", k, s.P50)
		}
	}
}
