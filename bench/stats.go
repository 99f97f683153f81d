package main

import (
	"math"
	"sort"
)

// summary is a metric's sample as the report prints it: how many
// samples, their median and their quartiles.
type summary struct {
	N              int
	Median, Q1, Q3 float64
}

func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	q1, med, q3 := quartiles(v)
	return summary{N: len(v), Median: med, Q1: q1, Q3: q3}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) returns (its default "exclusive" method),
// because that is the rule the spread of a metric is judged by. One
// sample is its own quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// tailPercentile is the highest of p50, p90, p99 and p99.9 that still has
// ten of n samples beyond it; a percentile with fewer is one slow request.
func tailPercentile(n int) float64 {
	best := 0.5
	for _, den := range []int{10, 100, 1000} {
		rank := (n*(den-1) + den - 1) / den // ceil(n*(den-1)/den), the nearest-rank index of the percentile
		if n-rank >= 10 {
			best = float64(den-1) / float64(den)
		}
	}
	return best
}

// percentile selects the q-quantile of sorted latencies by nearest rank,
// so the value is one a request really took. A failed request is passed in
// as +Inf and therefore misses every limit.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// point is one evaluation of a training run: the training clock (pauses
// excluded), the updates applied so far, and the hold-out error there.
type point struct {
	T, Updates, Err float64
}

// crossing finds where the curve first reaches target, interpolating
// linearly between the evaluation above it and the one at or below it.
// A curve that starts at or below target crosses at its first point; one
// that never gets there reports ok = false.
func crossing(curve []point, target float64) (t, updates float64, ok bool) {
	for i, p := range curve {
		if p.Err > target {
			continue
		}
		if i == 0 {
			return p.T, p.Updates, true
		}
		prev := curve[i-1]
		f := (prev.Err - target) / (prev.Err - p.Err)
		return prev.T + f*(p.T-prev.T), prev.Updates + f*(p.Updates-prev.Updates), true
	}
	return 0, 0, false
}

// timeline is a training run assembled from the fastest execution seen of
// each of its pieces (construction, each epoch, each group of blocks),
// over the reps of one benchmark run. On a shared host interference only
// ever adds time, and it comes and goes within tenths of a second: on the
// reference box the mean time of a fixed 4 ms task moved by a factor of two
// from one 10 s window to the next, while the fastest 120 ms stretch in
// each window stayed within a few percent. A rep's total is hostage to
// the worst of its pieces; the fastest of several tries at each piece is
// what the code takes when it is left alone.
type timeline struct {
	secs    []float64 // fastest duration seen of piece i
	updates []float64 // updates applied during piece i (the same in every rep)
	reps    int
}

// offer folds one rep's pieces in. Every rep runs the same pieces; a rep
// that ran fewer contributes to those it ran.
func (tl *timeline) offer(secs, updates []float64) {
	if tl.reps == 0 {
		tl.secs = append([]float64(nil), secs...)
		tl.updates = append([]float64(nil), updates...)
	}
	tl.reps++
	for i := 0; i < len(secs) && i < len(tl.secs); i++ {
		tl.secs[i] = math.Min(tl.secs[i], secs[i])
	}
}

// pool treats the pieces from index from on as repeats of one piece (the
// epochs after the first, the groups of blocks after the window filled):
// each takes the fastest time per update any of them showed, which makes
// every rep times every such piece a try at the same stretch of work.
func (tl *timeline) pool(from int) {
	best := math.Inf(1)
	for i := from; i < len(tl.secs); i++ {
		if tl.updates[i] > 0 {
			best = math.Min(best, tl.secs[i]/tl.updates[i])
		}
	}
	for i := from; i < len(tl.secs); i++ {
		if tl.updates[i] > 0 {
			tl.secs[i] = best * tl.updates[i]
		}
	}
}

// total is the assembled run's length and the updates it applied.
func (tl *timeline) total() (secs, updates float64) {
	for i := range tl.secs {
		secs += tl.secs[i]
		updates += tl.updates[i]
	}
	return secs, updates
}

// at is the assembled run's clock when u updates had been applied, linear
// within the piece that applied them.
func (tl *timeline) at(u float64) float64 {
	t, done := 0.0, 0.0
	for i, d := range tl.secs {
		if n := tl.updates[i]; n > 0 && done+n >= u {
			return t + d*(u-done)/n
		} else {
			done += n
		}
		t += d
	}
	return t
}
