package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile; below that the percentile is one or two outliers, not a
// property of the workload.
const minBeyond = 10

// tailQ is the tail quantile every latency workload reports.
const tailQ = 0.90

// samplesFor returns the smallest sample count whose q-quantile has at
// least minBeyond samples beyond it (100 for p90).
func samplesFor(q float64) int {
	return int(math.Ceil(minBeyond/(1-q) - 1e-9))
}

// percentile returns the nearest-rank q-quantile of xs and the number of
// samples strictly beyond it in rank. ok is false when fewer than
// minBeyond samples lie beyond, i.e. the run was too short to report the
// percentile under the ten-samples-beyond rule. xs is not modified.
func percentile(xs []float64, q float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	beyond = len(s) - 1 - idx
	return s[idx], beyond, beyond >= minBeyond
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// medianDur is median over durations.
func medianDur(ds []time.Duration) time.Duration {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return time.Duration(median(out))
}

// interval is a half-open [start, end) span of nanoseconds.
type interval struct{ start, end int64 }

// covered returns how many nanoseconds of the window [lo, hi) at least
// one interval covers (overlaps counted once).
func covered(ivs []interval, lo, hi int64) int64 {
	var clipped []interval
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// frac is num/den, 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
