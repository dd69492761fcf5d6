package main

import (
	"math"
	"sort"
	"time"

	"nova/internal/obs"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailValid reports whether at least ten samples lie beyond the
// q-quantile of n samples, the least a tail percentile may rest on.
func tailValid(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// histQuantileMs estimates the q-quantile of an obs histogram (values in
// microseconds, log2 buckets) in milliseconds, interpolating linearly
// inside the bucket that holds it, as Prometheus' histogram_quantile
// does.
func histQuantileMs(h obs.Hist, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(obs.BucketUpper(i-1) + 1)
			}
			hi := float64(obs.BucketUpper(i))
			if i == obs.NumBuckets-1 || hi > float64(h.MaxV) {
				hi = float64(h.MaxV)
			}
			return (lo + (hi-lo)*(rank-cum)/float64(n)) / 1000
		}
		cum += float64(n)
	}
	return float64(h.MaxV) / 1000
}
