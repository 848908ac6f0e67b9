package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported percentile:
// a p99 needs at least 1000 samples, a p90 at least 100.
const tailSamples = 10

// latencies collects one kind of operation's latencies in milliseconds. A
// failed operation is recorded as +Inf, so it misses every latency limit.
type latencies struct {
	vals []float64
}

func (l *latencies) add(ms float64) { l.vals = append(l.vals, ms) }

func (l *latencies) fail() { l.vals = append(l.vals, math.Inf(1)) }

func (l *latencies) count() int { return len(l.vals) }

// percentile returns the q-quantile (0 < q < 1) of vals by the
// nearest-rank rule, and whether at least tailSamples samples lie beyond
// it. An unsupported percentile must not be reported under its name.
func percentile(vals []float64, q float64) (float64, bool) {
	if len(vals) == 0 {
		return 0, false
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	// The epsilon keeps q·n that is a whole number in exact arithmetic
	// (0.999·10000) from rounding up a rank.
	rank := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-1-rank >= tailSamples
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(values, n=4) with its
// default exclusive method, which is how run-to-run spread is judged.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// histQuantile estimates the q-quantile of a Prometheus histogram from the
// deltas of its cumulative bucket counts (bounds ascending, +Inf last),
// interpolating linearly inside the bucket that holds the rank.
func histQuantile(bounds, cum []float64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	rank := q * cum[len(cum)-1]
	lo, prev := 0.0, 0.0
	for i, c := range cum {
		if c >= rank {
			hi := bounds[i]
			if math.IsInf(hi, 1) {
				return lo // beyond the last finite bound: report the bound
			}
			if c == prev {
				return hi
			}
			return lo + (hi-lo)*(rank-prev)/(c-prev)
		}
		lo, prev = bounds[i], c
	}
	return lo
}
