package main

import (
	"testing"
	"time"
)

func TestPercentileIsRecordedSample(t *testing.T) {
	r := rng{s: 7}
	var s samples
	recorded := map[int64]bool{}
	for i := 0; i < 5000; i++ {
		// Heavy-tailed values spanning several powers of two, the shape
		// on which a bucketed histogram reports a p999 above the max.
		d := time.Duration(r.next()%1000) * time.Microsecond
		if r.below(5) {
			d = time.Duration(40+r.next()%30) * time.Millisecond
		}
		s.add(d)
		recorded[int64(d)] = true
	}
	sorted := s.sorted()
	max := sorted[len(sorted)-1]
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
		p := sorted.percentile(q)
		if !recorded[p] {
			t.Errorf("p%v = %d was never recorded", q*100, p)
		}
		if p > max {
			t.Errorf("p%v = %d exceeds max %d", q*100, p, max)
		}
	}
	if p99 := sorted.percentile(0.99); p99 > max {
		t.Errorf("p99 %d > max %d", p99, max)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := samples{50, 10, 40, 20, 30}.sorted()
	cases := []struct {
		q    float64
		want int64
	}{{0.2, 10}, {0.21, 20}, {0.5, 30}, {0.99, 50}, {1, 50}}
	for _, c := range cases {
		if got := s.percentile(c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := (samples{}).percentile(0.5); got != 0 {
		t.Errorf("empty percentile = %d, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
