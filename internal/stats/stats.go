// Package stats provides the small numerical substrate Pocolo depends on:
// descriptive statistics and ordinary least squares multiple regression
// (used to fit the Cobb-Douglas indirect utility model after the log
// transformation described in Section IV-A of the paper).
//
// Everything is implemented from scratch on top of the standard library so
// the module builds offline.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
