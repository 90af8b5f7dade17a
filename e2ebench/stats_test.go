package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		want      float64
		pct, val  float64
		expectErr bool
	}{
		{n: 100, want: 99, pct: 90, val: 90}, // p95 would leave 5 beyond
		{n: 99, want: 99, pct: 75, val: 75},  // p90 would leave 9 beyond
		{n: 200, want: 99, pct: 95, val: 190},
		{n: 200, want: 90, pct: 90, val: 180}, // capped at the wanted percentile
		{n: 1100, want: 99, pct: 99, val: 1089},
		{n: 20, want: 99, pct: 50, val: 10},
		{n: 19, want: 99, expectErr: true},
		{n: 0, want: 99, expectErr: true},
	} {
		pct, val, err := tail(seq(tc.n), tc.want)
		if tc.expectErr {
			if err == nil {
				t.Errorf("n=%d: got p%g=%g, want an error", tc.n, pct, val)
			}
			continue
		}
		if err != nil || pct != tc.pct || val != tc.val {
			t.Errorf("n=%d want≤p%g: got p%g=%g (%v), want p%g=%g", tc.n, tc.want, pct, val, err, tc.pct, tc.val)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > val {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, pct)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
}
