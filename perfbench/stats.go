package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a tail estimate resting on fewer points is noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted
// and whether at least minBeyond samples lie strictly beyond its rank.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n-1-idx >= minBeyond
}

// latencies collects one goroutine's operation latencies; merge the
// per-client sets after the run instead of sharing one behind a lock.
type latencies struct{ us []float64 }

func (l *latencies) add(d time.Duration) { l.us = append(l.us, float64(d)/1e3) }

func mergeSorted(sets ...*latencies) []float64 {
	var all []float64
	for _, s := range sets {
		all = append(all, s.us...)
	}
	sort.Float64s(all)
	return all
}

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

// interval is a closed-open span [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of parent the children cover: each child is
// clipped to parent and overlapping children count once.
func covered(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			total += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent, children)
}
