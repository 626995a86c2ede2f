package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

const (
	opRead = iota
	opWrite
)

// latencies holds a fixed 1-in-every sample of per-operation wall times,
// per kind. A clock read costs tens of nanoseconds against a fleet read
// of well under a microsecond, so timing every operation would distort
// throughput; throughput is counted over all operations instead.
type latencies struct {
	every int64
	n     [2]int64
	ns    [2][]int64
}

func newLatencies(every int64, capacity int) *latencies {
	l := &latencies{every: every}
	for k := range l.ns {
		l.ns[k] = make([]int64, 0, capacity)
	}
	return l
}

// start returns the start time when this operation is sampled, else the
// zero time. A nil receiver samples nothing.
func (l *latencies) start(kind int) time.Time {
	if l == nil {
		return time.Time{}
	}
	l.n[kind]++
	if l.n[kind]%l.every != 0 {
		return time.Time{}
	}
	return time.Now()
}

func (l *latencies) stop(kind int, t0 time.Time) {
	if l == nil || t0.IsZero() {
		return
	}
	l.ns[kind] = append(l.ns[kind], int64(time.Since(t0)))
}

// percentileUS returns the p-th percentile (0 < p < 1) of latency
// samples in microseconds, or NaN when fewer than ten samples lie beyond
// it (such a percentile is no tail).
func percentileUS(s []int64, p float64) float64 {
	if float64(len(s))*(1-p) < 10 {
		return math.NaN()
	}
	sorted := append([]int64(nil), s...)
	slices.Sort(sorted)
	return float64(sorted[int(p*float64(len(sorted)))]) / 1e3
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), returning Q1, Q2 and Q3.
func quartiles(xs []float64) (q [3]float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		for i := range q {
			q[i] = median(s)
		}
		return q
	}
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
