package main

import (
	"math"
	"sort"
	"time"

	"crossarch/internal/obs"
)

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func durQuantile(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

// histDelta is the part of an obs histogram observed between two
// snapshots.
type histDelta struct {
	count uint64
	sum   float64
	// buckets maps each upper bound to the observations in that bucket.
	buckets map[float64]uint64
}

func deltaOf(before, after obs.Snapshot, name string) histDelta {
	a, b := after.Histograms[name], before.Histograms[name]
	d := histDelta{count: a.Count - b.Count, sum: a.Sum - b.Sum, buckets: map[float64]uint64{}}
	for _, bc := range a.Buckets {
		d.buckets[bc.Le] += bc.Count
	}
	for _, bc := range b.Buckets {
		d.buckets[bc.Le] -= bc.Count
	}
	return d
}

func (d histDelta) mean() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / float64(d.count)
}

// quantile interpolates linearly inside the bucket holding the q-th
// observation, the way obs reports its own quantiles. obs buckets grow
// by a factor of two, so this is coarse.
func (d histDelta) quantile(q float64) float64 {
	if d.count == 0 {
		return 0
	}
	les := make([]float64, 0, len(d.buckets))
	for le, n := range d.buckets {
		if n > 0 {
			les = append(les, le)
		}
	}
	sort.Float64s(les)
	rank := q * float64(d.count)
	var seen float64
	prev := 0.0
	for _, le := range les {
		n := float64(d.buckets[le])
		if seen+n >= rank {
			lo := le / 2 // obs.DefaultBuckets doubles from one bound to the next
			if prev > lo {
				lo = prev
			}
			return lo + (le-lo)*(rank-seen)/n
		}
		seen += n
		prev = le
	}
	return prev
}

func counterDelta(before, after obs.Snapshot, name string) float64 {
	return after.Counters[name] - before.Counters[name]
}
