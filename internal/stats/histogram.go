package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"
)

// Histogram is a concurrency-safe log-bucketed latency histogram used
// by the harness to report allocation-path latency distributions (the
// §3.3 comparison) rather than bare means.
//
// Buckets are powers of two in nanoseconds: bucket i covers
// [2^i, 2^(i+1)) ns, with an underflow bucket for < 1 ns.
type Histogram struct {
	mu      sync.Mutex
	buckets [64]uint64
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN records n observations of the same duration under one lock
// acquisition: the server's shard workers observe every op of a kind
// in a batch at once, since they all share the batch's latency.
func (h *Histogram) ObserveN(d time.Duration, n uint64) {
	if n == 0 {
		return
	}
	if d < 0 {
		d = 0
	}
	// A non-negative duration has at most 63 significant bits.
	idx := bits.Len64(uint64(d))
	h.mu.Lock()
	h.buckets[idx] += n
	h.count += n
	h.sum += d * time.Duration(n)
	if h.count == n || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the average observation.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min returns the smallest observation.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns an estimate of the q-quantile (0 < q <= 1) using the
// bucket upper bounds; accuracy is within a factor of two, which is
// plenty for order-of-magnitude path-cost comparisons.
func (h *Histogram) Quantile(q float64) time.Duration {
	if q <= 0 || q > 1 {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			if i == 0 {
				return time.Nanosecond
			}
			return time.Duration(uint64(1) << uint(i))
		}
	}
	return h.max
}

// HistogramSnapshot is an immutable copy of a Histogram's raw state.
// Bucket i holds observations with bit length i nanoseconds, i.e. the
// interval [2^(i-1), 2^i) ns, with bucket 0 counting zero durations.
type HistogramSnapshot struct {
	Buckets [64]uint64
	Count   uint64
	Sum     time.Duration
	Min     time.Duration
	Max     time.Duration
}

// Export snapshots the histogram for exporters (internal/metrics).
func (h *Histogram) Export() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Buckets: h.buckets,
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
	}
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d min=%v p50=%v p99=%v max=%v mean=%v",
		h.Count(), h.Min(), h.Quantile(0.5), h.Quantile(0.99), h.Max(), h.Mean())
}

// Median returns the exact median of a duration slice (helper for
// repeated-run reporting; modifies a copy, not the input).
func Median(ds []float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	cp := make([]float64, len(ds))
	copy(cp, ds)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}
