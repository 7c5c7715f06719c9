package main

import (
	"math"
	"testing"
)

func nearly(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its argument")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 90) != 0 {
		t.Error("percentile of nothing is not 0")
	}
}

// The expected spreads are (q3-q1)/median with
// statistics.quantiles(xs, n=4) of Python 3.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{5, 1, 9, 3}, 1.625},
		{[]float64{1, 2}, 1.0},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.0},
		{[]float64{100, 101, 99, 100, 102}, 0.02},
		{[]float64{4}, 0},
	} {
		if got := quartileSpread(c.in); !nearly(got, c.want) {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Slow rounds, however many, must not move the reported value as long
// as a tenth of the rounds ran undisturbed.
func TestQuietPercentileOverRounds(t *testing.T) {
	var rs []round
	for i := 0; i < 20; i++ {
		ms := 100.0
		if i%4 != 0 {
			ms = 130 + float64(i)
		}
		rs = append(rs, round{samples: []sample{{ms: ms}, {ms: ms + 2}}, wallS: 1})
	}
	if got := overRounds(rs, quiet, round.meanMs); got != 101 {
		t.Errorf("quiet round latency = %v, want 101", got)
	}
	if got := overRounds(rs, 50, round.meanMs); got < 130 {
		t.Errorf("median round latency = %v, want it among the slow rounds", got)
	}
}
