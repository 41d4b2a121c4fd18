package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by the ceil-based nearest-rank
// rule; NaN for an empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms, us and secs convert a duration to float milliseconds, microseconds
// and seconds.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// ratio is num/den, or 0 when den is 0 (an idle layer).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an ordered set of reported values.
type metrics struct {
	names []string
	m     map[string]metric
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

// set records a value; NaN and infinities (an empty or failed sample) are
// reported as 0 and 1e12 respectively so the output stays valid JSON.
func (ms *metrics) set(name, unit string, v float64) {
	switch {
	case math.IsNaN(v):
		v = 0
	case math.IsInf(v, 0):
		v = 1e12
	}
	if _, ok := ms.m[name]; !ok {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit}
}
