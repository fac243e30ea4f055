package main

import (
	"math"
	"sort"
	"time"
)

// samples holds exact measurements in nanoseconds. Percentiles are read
// from the recorded values themselves, never from buckets, so every
// reported percentile is a value that was actually observed.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// sorted returns a sorted copy.
func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// samples: the smallest recorded value with at least q of the samples
// at or below it. It returns 0 for no samples.
func (s samples) percentile(q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func (s samples) sum() int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// merge concatenates per-goroutine sample sets.
func merge(parts ...samples) samples {
	var out samples
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// rng is splitmix64: seeded, allocation-free, identical on every host.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// below reports true with probability perMille/1000.
func (r *rng) below(perMille int) bool { return int(r.next()%1000) < perMille }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
