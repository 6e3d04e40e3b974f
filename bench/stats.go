package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// bestQuarter is the mean of the best quarter of the samples (by count,
// rounded down, at least one): the lowest when lower is better, the highest
// otherwise. It is the estimator of every per-cycle timing. On this shared
// sandbox the noise is one-sided — a neighbour slows a stretch of cycles,
// nothing ever speeds one up — so the undisturbed cycles are the fast ones:
// up to three quarters of a run can be disturbed without moving the
// estimate, where an interquartile mean moves as soon as a quarter is.
// Averaging a quarter rather than taking the minimum keeps a single lucky
// cycle from setting the number.
func bestQuarter(xs []float64, higherIsBetter bool) float64 {
	s := sorted(xs)
	n := len(s) / 4
	if n < 1 {
		n = 1
	}
	if higherIsBetter {
		return mean(s[len(s)-n:])
	}
	return mean(s[:n])
}

// percentile interpolates linearly between the two nearest order statistics
// of an ascending slice (p in [0,1]); the same rule as numpy's default.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := p * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(sorted(xs), 0.5) }

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the acceptance check computes spreads
// with. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// cv is the coefficient of variation (population standard deviation over the
// mean).
func cv(xs []float64) float64 {
	m := mean(xs)
	if m == 0 {
		return 0
	}
	ss := 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs))) / m
}
