package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of xs and whether
// it may be reported: at least minTail samples must lie beyond it, so a
// tail is never read off a handful of points.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n-rank < minTail {
		return 0, false
	}
	s := sorted(xs)
	return s[rank-1], true
}

// tailLadder lists the percentiles a summary line may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// highestTail returns the highest percentile of tailLadder that
// percentile accepts for xs, or false when even the median is refused.
func highestTail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailLadder {
		if v, ok := percentile(xs, p); ok {
			return p, v, true
		}
	}
	return 0, 0, false
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples. Unlike percentile it
// has no tail rule: it summarizes a few repeated measurements.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// samples is a concurrency-safe latency recorder.
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

// tailed returns the p-th percentile of the recorded samples, or an
// error naming the metric when the tail rule refuses it.
func tailed(name string, xs []float64, p float64) (float64, error) {
	v, ok := percentile(xs, p)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples leave fewer than %d beyond p%g", name, len(xs), minTail, p)
	}
	return v, nil
}
