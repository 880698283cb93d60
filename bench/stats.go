package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted (ascending) by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is how every metric is reported: the median of its samples
// (one per measured window unless stated), with the spread beside it.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func summarize(unit string, samples ...float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return summary{
		Value: quantile(s, 0.5), Unit: unit,
		Min: quantile(s, 0), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Max: quantile(s, 1),
		N: len(s),
	}
}

// withValue replaces the headline value, keeping the spread columns.
func (s summary) withValue(v float64) summary {
	s.Value = v
	return s
}

// sortedCopy returns v sorted ascending as float64.
func sortedCopy(v []int64) []float64 {
	s := make([]float64, len(v))
	for i, x := range v {
		s[i] = float64(x)
	}
	sort.Float64s(s)
	return s
}

// slope is the least-squares slope of y over x.
func slope(x, y []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	n := float64(len(x))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
