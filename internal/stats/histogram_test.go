package stats

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for _, d := range []time.Duration{10, 20, 30, 40, 1000} {
		h.Observe(d * time.Nanosecond)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != 10*time.Nanosecond || h.Max() != 1000*time.Nanosecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Mean(); got != 220*time.Nanosecond {
		t.Fatalf("Mean = %v", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 99 fast observations, 1 slow.
	for i := 0; i < 99; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	h.Observe(100 * time.Microsecond)
	p50 := h.Quantile(0.5)
	p999 := h.Quantile(0.999)
	// Log buckets: p50 within a factor of two of 100ns.
	if p50 < 64*time.Nanosecond || p50 > 256*time.Nanosecond {
		t.Fatalf("p50 = %v, want ~100ns", p50)
	}
	if p999 < 50*time.Microsecond {
		t.Fatalf("p999 = %v, want to catch the slow outlier", p999)
	}
	if h.Quantile(0) != 0 || h.Quantile(1.5) != 0 {
		t.Fatal("out-of-range quantiles should be 0")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5 * time.Nanosecond)
	if h.Count() != 1 || h.Max() != 0 {
		t.Fatalf("negative observation mishandled: %s", h.String())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d", h.Count())
	}
}

// ObserveN(d, n) leaves the same state as n calls of Observe(d), from
// an empty histogram and from one that already holds observations.
func TestHistogramObserveNMatchesObserve(t *testing.T) {
	var batched, single Histogram
	for _, c := range []struct {
		d time.Duration
		n uint64
	}{
		{300, 3}, {-5, 2}, {0, 1}, {1, 4}, {70 * time.Microsecond, 16}, {2, 0}, {time.Duration(1<<63 - 1), 1},
	} {
		batched.ObserveN(c.d, c.n)
		for i := uint64(0); i < c.n; i++ {
			single.Observe(c.d)
		}
		if got, want := batched.Export(), single.Export(); got != want {
			t.Fatalf("after ObserveN(%v, %d): %+v, want %+v", c.d, c.n, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Input must not be reordered.
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Fatal("Median mutated its input")
	}
}
