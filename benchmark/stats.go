package main

import "sort"

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (0 for no samples). vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// summary is a metric over the repetitions of one run: the median is the
// reported value, the quartiles its spread.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(vs []float64) summary {
	return summary{Median: median(vs), Q1: quantile(vs, 0.25), Q3: quantile(vs, 0.75), Values: vs}
}
