package main

import (
	"math"
	"sort"
	"time"

	"toorjah/internal/obs"
)

// tailCandidates are the percentiles a tail may be reported at, lowest
// first.
var tailCandidates = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// beyond is the number of samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error (99.9/100·10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// highestTail is the highest candidate percentile that has at least
// minBeyond samples beyond it, or 0 when even the median has fewer.
func highestTail(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		if n > 0 && beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// dist is a sorted set of raw samples.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// pct is the nearest-rank p-th percentile; 0 for an empty set.
func (d dist) pct(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return d[rank(len(d), p)-1]
}

// resolved reports whether the p-th percentile has minBeyond samples
// beyond it.
func (d dist) resolved(p float64) bool { return beyond(len(d), p) >= minBeyond }

// Windowed percentiles: a run's samples, in send order, are cut into at
// most maxWindows equal windows of at least minWindow samples, each with
// enough samples to resolve the percentile; the reported value is the
// median of the windows' percentiles, so one burst of interference moves
// at most one window.
const (
	maxWindows = 5
	minWindow  = 200
)

// windows is how many windows n samples are cut into for percentile p.
func windows(n int, p float64) int {
	w := min(maxWindows, n/minWindow)
	for w > 1 && beyond(n/w, p) < minBeyond {
		w--
	}
	return max(w, 1)
}

// windowedPct is the median over windows of the p-th percentile of xs,
// which are in send order.
func windowedPct(xs []float64, p float64) float64 {
	w := windows(len(xs), p)
	per := make([]float64, w)
	for i := range per {
		per[i] = newDist(xs[i*len(xs)/w : (i+1)*len(xs)/w]).pct(p)
	}
	return newDist(per).pct(50)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// interval is a half-open time range [start, end), in nanoseconds on one
// clock.
type interval struct{ start, end int64 }

// coveredWithin is the length of the part of outer that the union of ivs
// covers. Overlapping intervals (parallel probes of one pipelined query)
// count once.
func coveredWithin(outer interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, outer.start), min(iv.end, outer.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curS, curE, open = iv.start, iv.end, true
		case iv.start <= curE:
			curE = max(curE, iv.end)
		default:
			total += curE - curS
			curS, curE = iv.start, iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - coveredWithin(parent, children)
}

// openLoopTiming is how one open-loop request is accounted: its latency
// runs from when it was due, not from when a free worker sent it, so a
// stall is charged to every request it delayed; lateness is how far
// behind schedule the generator sent it.
func openLoopTiming(due, sent, done time.Duration) (latency, late time.Duration) {
	late = sent - due
	if late < 0 {
		late = 0
	}
	return done - due, late
}

// scrapeDelta is the growth of every named counter family (summed over
// its label sets) between two /metrics scrapes.
func scrapeDelta(before, after *obs.Scrape, families ...string) map[string]float64 {
	out := make(map[string]float64, len(families))
	for _, f := range families {
		out[f] = after.SumDelta(before, f)
	}
	return out
}

// fifoMisses replays a request sequence against a FIFO plan cache of the
// given capacity (the service's warm-plan map) and counts the texts that
// had to be planned.
func fifoMisses(texts []string, capacity int) int {
	held := make(map[string]bool, capacity)
	order := make([]string, 0, capacity)
	misses := 0
	for _, t := range texts {
		if held[t] {
			continue
		}
		misses++
		if len(order) >= capacity {
			delete(held, order[0])
			order = order[1:]
		}
		held[t] = true
		order = append(order, t)
	}
	return misses
}
