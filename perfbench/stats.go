package main

import (
	"fmt"
	"regexp"
	"sort"
	"time"
)

// percentileLadder lists the percentiles a timing may be reported at,
// in units of 1/10000.
var percentileLadder = []int{5000, 9000, 9900, 9990, 9999}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// rankOf is the 1-based nearest rank of percentile p (in 1/10000)
// among n sorted samples.
func rankOf(n, p int) int {
	r := (n*p + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest ladder percentile (in 1/10000)
// that has at least minBeyond of n samples beyond it, and false when
// not even the median does.
func tailPercentile(n int) (int, bool) {
	best, ok := 0, false
	for _, p := range percentileLadder {
		if n-rankOf(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// sampleSet collects latency samples in milliseconds.
type sampleSet struct {
	name string
	v    []float64
}

func (s *sampleSet) add(d time.Duration) { s.v = append(s.v, float64(d)/1e6) }

// percentile returns the nearest-rank percentile p (in 1/10000). It
// fails unless at least minBeyond samples lie beyond p, so a named
// tail (p99, p90) is never reported from too few samples.
func (s *sampleSet) percentile(p int) (float64, error) {
	n := len(s.v)
	if n-rankOf(n, p) < minBeyond {
		return 0, fmt.Errorf("%s: %d samples leave fewer than %d beyond p%g", s.name, n, minBeyond, float64(p)/100)
	}
	sorted := append([]float64(nil), s.v...)
	sort.Float64s(sorted)
	return sorted[rankOf(n, p)-1], nil
}

// blockPercentile splits the samples, in the order they were taken,
// into as many consecutive blocks as can each support percentile p
// with minBeyond samples beyond it, and returns the median of the
// blocks' percentiles along with each block's. A burst of host noise
// then moves one block's tail rather than the run's. It fails when not
// even one block can support p.
func (s *sampleSet) blockPercentile(p int) (float64, []float64, error) {
	size := 1
	for size-rankOf(size, p) < minBeyond {
		size++
	}
	k := len(s.v) / size
	if k == 0 {
		_, err := s.percentile(p) // reports the shortfall
		return 0, nil, err
	}
	var tails []float64
	for i := 0; i < k; i++ {
		b := sampleSet{name: s.name, v: s.v[i*len(s.v)/k : (i+1)*len(s.v)/k]}
		v, err := b.percentile(p)
		if err != nil {
			return 0, nil, err
		}
		tails = append(tails, v)
	}
	return median(tails), tails, nil
}

// median returns the middle value of v (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// nearestRank is the nearest-rank percentile p (in 1/10000) of v
// without the sample-count rule; for per-layer figures that only
// attribute, never gate. 0 for an empty slice.
func nearestRank(v []float64, p int) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rankOf(len(s), p)-1]
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name fits the result format's
// charset: a letter or digit, then at most 63 of [A-Za-z0-9_.-].
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }
