package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the middle two for an even
// count); 0 for no samples.
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

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a tail figure resting on fewer is noise.
const minBeyond = 10

// tailCandidates are the percentiles a tail is reported at, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// rank is the nearest-rank position (1-based) of percentile p among n
// sorted samples, ⌈p·n/100⌉, in integer tenths of a percent so that
// p99.9 of 10000 is exactly 9990.
func rank(p float64, n int) int {
	k := (int(math.Round(p*10))*n + 999) / 1000
	if k < 1 {
		k = 1
	}
	return k
}

// tailPercentile picks the highest percentile of tailCandidates that has
// at least minBeyond of n samples strictly beyond its nearest-rank
// position; ok is false when even the median lacks that many.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailCandidates {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of xs; 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// tail reports percentile want of xs when the sample supports it, and
// otherwise the highest percentile it does support; got names the one
// reported, so a caller can flag a tail the sample was too small for.
func tail(xs []float64, want float64) (v, got float64) {
	got = want
	if p, ok := tailPercentile(len(xs)); ok && p < want {
		got = p
	} else if !ok {
		got = 50
	}
	return percentile(xs, got), got
}

// span is one timed call into a layer. Spans of one run share a tracer;
// parent is the index of the enclosing span, -1 for a root.
type span struct {
	name       string
	parent     int
	start, end time.Time
}

// tracer keeps a run's spans in memory; they are summarised when the run
// ends.
type tracer struct {
	spans []span
}

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) { t.spans[i].end = time.Now() }

// dur is span i's duration.
func (t *tracer) dur(i int) time.Duration { return t.spans[i].end.Sub(t.spans[i].start) }

// self is span i's self time: its duration minus the part of its interval
// its child spans cover.
func (t *tracer) self(i int) time.Duration {
	var kids [][2]time.Time
	for _, s := range t.spans {
		if s.parent == i {
			kids = append(kids, [2]time.Time{s.start, s.end})
		}
	}
	return selfTime(t.spans[i].start, t.spans[i].end, kids)
}

// selfTime is the length of [start, end] not covered by the union of the
// child intervals, each clipped to [start, end]. Overlapping children
// (parallel calls) count once.
func selfTime(start, end time.Time, kids [][2]time.Time) time.Duration {
	total := end.Sub(start)
	if total <= 0 {
		return 0
	}
	var iv [][2]time.Time
	for _, k := range kids {
		a, b := k[0], k[1]
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var covered time.Duration
	var curA, curB time.Time
	for i, k := range iv {
		switch {
		case i == 0:
			curA, curB = k[0], k[1]
		case k[0].After(curB):
			covered += curB.Sub(curA)
			curA, curB = k[0], k[1]
		case k[1].After(curB):
			curB = k[1]
		}
	}
	if len(iv) > 0 {
		covered += curB.Sub(curA)
	}
	return total - covered
}
