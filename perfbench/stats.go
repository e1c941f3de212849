package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail may be reported at, highest first.
// A tail is the highest of them with at least minBeyond samples above it, so
// it is never read off a handful of outliers. The ladder stops at p90:
// ingest-dbg4's per-delta samples come in bursts that share one wait, so
// its p99 rests on a few bursts; with bursts of 32 it varied 2.5x across
// seeds.
var tailLadder = []float64{90, 75}

const minBeyond = 10

// msOf converts a duration to milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durOf converts milliseconds to a duration.
func durOf(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples; 0 for
// no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankOf is the 0-based nearest-rank index of percentile p among n samples.
func rankOf(p float64, n int) int {
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return k
}

// tail is the highest ladder percentile with at least minBeyond samples
// above its rank. It returns the value, the percentile and how many samples
// lie beyond it; with too few samples for any rung it returns the maximum.
func tail(xs []float64) (value, pct float64, beyond int) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	for _, p := range tailLadder {
		k := rankOf(p, n)
		if n-1-k >= minBeyond {
			return s[k], p, n - 1 - k
		}
	}
	return s[n-1], 100, 0
}

// tailNote describes a tail for the human-readable part of the output.
func tailNote(name string, xs []float64) string {
	v, p, beyond := tail(xs)
	return fmt.Sprintf("%s = p%g of %d samples = %.4f (%d samples beyond)", name, p, len(xs), v, beyond)
}

// fraction is num/den, 0 when den is 0.
func fraction(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
