package main

import (
	"math"
	"sort"
)

// tailLadder is the fixed set of percentiles the tail latency is chosen
// from. A fixed ladder (instead of "the 11th-largest sample") keeps the
// reported percentile the same across runs whose sample counts differ a
// little.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie above a percentile before it may
// be reported as the tail.
const minBeyond = 10

// rank is the 1-based nearest-rank index of percentile p among n samples.
// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002) from
// rounding an exact rank up.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank percentile p of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailPercentile picks the highest ladder percentile that has at least
// minBeyond samples strictly above its rank among n samples. ok is false
// when not even the median qualifies (fewer than 2*minBeyond samples).
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if n-rank(tailLadder[i], n) >= minBeyond {
			return tailLadder[i], true
		}
	}
	return 0, false
}

// latencySummary is the median and tail of one run's op latencies.
type latencySummary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50_ms"`
	TailP  float64 `json:"tail_percentile"` // 100 means "max": too few samples for the ladder
	Tail   float64 `json:"tail_ms"`
	Beyond int     `json:"tail_samples_beyond"`
	// Samples are the op latencies, sorted, so any other statistic can be
	// recomputed from a result.
	Samples []float64 `json:"samples_ms"`
}

func summarize(ms []float64) latencySummary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	out := latencySummary{N: len(s), P50: median(s), Samples: s}
	if p, ok := tailPercentile(len(s)); ok {
		out.TailP, out.Tail, out.Beyond = p, percentile(s, p), len(s)-rank(p, len(s))
	} else if len(s) > 0 {
		out.TailP, out.Tail = 100, s[len(s)-1]
	}
	return out
}

// median is the middle sample, or the mean of the two middle samples of
// an even count.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// frac divides, reading 0/0 as 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
