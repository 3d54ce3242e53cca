package main

import "slices"

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread summarizes one metric's per-round values: their median (the
// metric's value) and quartiles.
type spread struct{ med, q1, q3 float64 }

func summarize(xs []float64) spread {
	c := slices.Clone(xs)
	return spread{med: quantile(c, 0.5), q1: quantile(c, 0.25), q3: quantile(c, 0.75)}
}

// toMs converts op latencies from ns to ms.
func toMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}
