package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{5, 100, 5, 0},
		{40, 75, 30, 10},
		{60, 75, 45, 15},
		{100, 90, 90, 10},
		{2000, 90, 1800, 200},
	} {
		v, p, b := tail(seq(c.n))
		if v != c.value || p != c.pct || b != c.beyond {
			t.Errorf("tail(n=%d) = (%v, p%v, %d), want (%v, p%v, %d)", c.n, v, p, b, c.value, c.pct, c.beyond)
		}
	}
}
