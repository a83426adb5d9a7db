package main

import (
	"math"
	"sort"

	"adaptbf/internal/stats"
)

// A summary condenses one metric's samples: the median is the reported
// value, the quartiles and n say how far to trust it.
type summary struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func summarize(samples []float64) summary {
	q1, q2, q3 := quartiles(samples)
	return summary{Value: q2, Q1: q1, Q3: q3, N: len(samples)}
}

// spread is the interquartile range as a share of the median — the
// quantity the acceptance driver holds against each metric's bound.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Value)
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), because that is what the acceptance driver
// computes spreads with; fewer than two samples yield the sample itself.
func quartiles(samples []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), samples...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		j = min(max(j, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(samples []float64) float64 {
	_, q2, _ := quartiles(samples)
	return q2
}

// digestQuantile estimates the p-th percentile (p in [0,100]) of d in
// microseconds, interpolating linearly inside the bucket that holds the
// rank. Digest.Quantile answers with the bucket's upper bound, so it moves
// in 7.5% steps — and reads exactly the same across runs until it jumps a
// whole step; interpolation keeps the estimate continuous.
func digestQuantile(d *stats.Digest, p float64) float64 {
	n := d.N()
	if n == 0 {
		return 0
	}
	rank := p / 100 * float64(n)
	var cum float64
	for _, b := range d.Buckets() {
		c := float64(b.Count)
		if cum+c >= rank {
			lo := math.Max(float64(b.Lo), float64(d.Min()))
			hi := math.Min(float64(b.Hi), float64(d.Max()))
			return (lo + (hi-lo)*(rank-cum)/c) / 1e3
		}
		cum += c
	}
	return float64(d.Max()) / 1e3
}
