package sim

import (
	"cmp"
	"slices"
)

// The future event list is a Brown-style calendar queue: O(1) amortized
// schedule/pop at any size, from a single source's few hundred pending
// events to a sharded aggregate's 10⁴–10⁶. It pops in exactly ascending
// (t, seq) order, the engine's determinism guarantee; the property tests
// in calqueue_test.go check that against a reference heap under
// adversarial interleavings.

const (
	// calGapFactor sizes bucket width as a multiple of the EWMA gap
	// between consecutively popped events, targeting a couple of events in
	// the bucket the scan is standing on. Wider buckets shift the cost
	// onto the head bucket's sorted inserts (measurably slower at 8×);
	// narrower ones onto the scan's empty-slot walk.
	calGapFactor = 2.0
	// calLoad bounds the average bucket occupancy to [1/calLoad, calLoad]:
	// above it the buckets double, below it they halve (never below two),
	// and each rebuild re-tunes the width. The calLoad² = 4:1 band between
	// the two triggers keeps a pending count near one of them from
	// thrashing.
	calLoad = 2
	// calGapWindow is the number of pops the gap EWMA averages over.
	calGapWindow = 64
)

// evLess is the scheduler's total order: ascending time, ties broken by
// schedule order.
func evLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// sched is the engine's future event list, a calendar queue: buckets of
// `width` seconds, bucket index = slot(t) mod len(buckets), where
// slot(t) = int64(t/width) is the absolute slot number. Each bucket is
// kept sorted descending by (t, seq) so its minimum is the tail: pop from
// the standing bucket is O(1), and the sortedness makes "does this bucket
// hold an event of the scan's current slot" a single tail comparison.
//
// Correctness does not depend on the width or on float precision at
// bucket boundaries: an event qualifies for popping when slot(t) equals
// the scan's absolute slot, computed with the *same* float arithmetic
// that placed it, so placement and qualification can never disagree.
// The scan is anchored at the engine clock (lastT: the last popped time,
// 0 before the first pop), and float multiplication is weakly monotone,
// so an event scheduled at t >= now can never land on a slot behind the
// scan. Events whose slot would overflow int64 (absurdly far futures from
// the public Schedule API) are parked in the small sorted `far` overflow
// list, consulted only by the direct-search fallback.
type sched struct {
	buckets [][]event // nil until the first pop
	far     []event   // overflow, sorted descending by (t, seq)
	spare   []event   // events staged before the first pop; then rebuild's gather buffer
	arena   []event   // unused storage that full buckets grow into (see carve)
	mask    int
	width   float64
	inv     float64
	slot    int64 // absolute slot the pop scan is standing on
	cur     int   // slot mod len(buckets)
	n       int

	directs int // consecutive popDirect fallbacks, triggers a re-tune

	// lastT is the time of the last pop — the engine clock the scan is
	// anchored at. gapEWMA is an exponentially weighted mean of the time
	// between consecutive pops, over about calGapWindow pops, the scale the
	// width is tuned to; it is seeded at the first pop from the spacing of
	// the earliest events pending then.
	lastT   float64
	gapEWMA float64
	popped  bool
}

// calOverflow bounds t/width so the int64 conversion in slotOf stays
// exact and in range.
const calOverflow = float64(1 << 60)

func (s *sched) len() int { return s.n }

// numBuckets reports the calendar's bucket count for the scheduler gauge.
func (s *sched) numBuckets() int { return len(s.buckets) }

// slotOf maps a time to its absolute slot, or returns ok=false when the
// slot number would overflow.
func (s *sched) slotOf(t float64) (int64, bool) {
	k := t * s.inv
	if k >= calOverflow {
		return 0, false
	}
	return int64(k), true
}

// setScan positions the pop scan on the slot containing time t.
func (s *sched) setScan(t float64) {
	s.slot = int64(min(t*s.inv, calOverflow))
	s.cur = int(s.slot) & s.mask
}

func (s *sched) push(e event) {
	s.n++
	if !s.popped {
		// No pop history to size the calendar by yet: stage the event
		// and build the calendar at the first pop.
		s.spare = append(s.spare, e)
		return
	}
	s.place(e)
	if s.n > calLoad*len(s.buckets) {
		s.rebuild(len(s.buckets) * 2)
	}
}

// place inserts e into its bucket (or the overflow list) in sorted
// position without touching the count.
func (s *sched) place(e event) {
	slot, ok := s.slotOf(e.t)
	if !ok {
		s.far = s.insertSorted(s.far, e)
		return
	}
	idx := int(slot) & s.mask
	s.buckets[idx] = s.insertSorted(s.buckets[idx], e)
}

// insertSorted inserts e into b, kept sorted descending by (t, seq). New
// events are usually the latest in their bucket, so the walk from the
// tail is short.
func (s *sched) insertSorted(b []event, e event) []event {
	if len(b) == cap(b) {
		b = s.carve(b)
	}
	i := len(b)
	b = b[:i+1]
	for i > 0 && evLess(&b[i-1], &e) {
		b[i] = b[i-1]
		i--
	}
	b[i] = e
	return b
}

// carve moves a full bucket to twice its capacity (at least 2·calLoad),
// cut from a shared arena that is refilled with calLoad slots per bucket
// when it runs short. Buckets thus grow in a few large allocations rather
// than one per bucket, and only as far as their occupancy needs: reserving
// fixed room per bucket instead cost over a megabyte of fresh memory at
// start-up for a many-source network.
func (s *sched) carve(b []event) []event {
	c := max(2*cap(b), 2*calLoad)
	if len(s.arena) < c {
		s.arena = make([]event, max(c, calLoad*len(s.buckets)))
	}
	grown := s.arena[:len(b):c]
	s.arena = s.arena[c:]
	copy(grown, b)
	clear(b) // release closures
	return grown
}

// pop removes and returns the minimum (t, seq) event. The scan walks
// slots from its current position, taking the tail of the standing bucket
// when that tail's slot matches; a full fruitless revolution falls back
// to a direct minimum search (sparse queue) which also re-anchors the
// scan.
func (s *sched) pop() event {
	if !s.popped {
		// Build the calendar over the staged events: calLoad of them per
		// bucket, the width from their earliest spacing.
		s.popped = true
		s.gapEWMA = s.headGap()
		nb := 2
		for nb*calLoad < s.n {
			nb <<= 1
		}
		s.rebuild(nb)
	}
	scanned := 0
	for {
		b := s.buckets[s.cur]
		if m := len(b); m > 0 {
			if slot, ok := s.slotOf(b[m-1].t); ok && slot == s.slot {
				e := b[m-1]
				b[m-1] = event{} // release any closure for GC
				s.buckets[s.cur] = b[:m-1]
				s.directs = 0
				s.took(e.t)
				return e
			}
		}
		s.slot++
		s.cur = int(s.slot) & s.mask
		scanned++
		if scanned > s.mask {
			return s.popDirect()
		}
	}
}

// took books a pop at time t: the count, the clock the scan is anchored
// at, the gap EWMA, and the shrink check.
func (s *sched) took(t float64) {
	s.n--
	s.gapEWMA += (t - s.lastT - s.gapEWMA) / calGapWindow
	s.lastT = t
	if nb := len(s.buckets); nb > 2 && s.n*calLoad < nb {
		s.rebuild(nb / 2)
	}
}

// popDirect finds the global minimum by inspecting every bucket's tail
// (each tail is its bucket's minimum) plus the overflow list, removes it,
// and re-anchors the scan at its time. O(buckets), hit only when a whole
// revolution holds no event; a streak of direct pops means the width no
// longer matches the event density, so it triggers a re-tune.
func (s *sched) popDirect() event {
	best := -1
	for i, b := range s.buckets {
		if m := len(b); m > 0 && (best < 0 || evLess(&b[m-1], &s.buckets[best][len(s.buckets[best])-1])) {
			best = i
		}
	}
	var e event
	if f := len(s.far); f > 0 && (best < 0 || evLess(&s.far[f-1], &s.buckets[best][len(s.buckets[best])-1])) {
		e = s.far[f-1]
		s.far[f-1] = event{}
		s.far = s.far[:f-1]
	} else {
		b := s.buckets[best]
		m := len(b)
		e = b[m-1]
		b[m-1] = event{}
		s.buckets[best] = b[:m-1]
		s.directs++
	}
	s.setScan(e.t)
	s.took(e.t)
	if s.directs >= 8 {
		s.retune()
		s.directs = 0
	}
	return e
}

// headGap estimates the pop gap before the first pop: the mean spacing
// of the calGapWindow earliest staged events, the window the gap EWMA
// then averages over (0 when that is undefined). The span of all staged
// events would not do: a few far-future timers stretch it, and the
// resulting wide buckets crowd the events due soon. One pass keeps the
// earliest times in a small sorted array on the stack.
func (s *sched) headGap() float64 {
	var buf [calGapWindow]float64
	h := buf[:0]
	for i := range s.spare {
		t := s.spare[i].t
		if len(h) == cap(h) {
			if t >= h[len(h)-1] {
				continue
			}
			h = h[:len(h)-1]
		}
		j, _ := slices.BinarySearch(h, t)
		h = slices.Insert(h, j, t)
	}
	if len(h) < 2 {
		return 0
	}
	return (h[len(h)-1] - h[0]) / float64(len(h)-1)
}

// retune rebuilds the calendar at its current size when the gap-derived
// width has drifted more than 2× from the one in use.
func (s *sched) retune() {
	if w := s.gapEWMA * calGapFactor; w > 0 && (w > 2*s.width || w < s.width/2) {
		s.rebuild(len(s.buckets))
	}
}

// rebuild redistributes every pending event (and any staged ones) over
// nb buckets, a power of two, with the width re-tuned to the gap EWMA.
// O(n); amortized by the doubling/halving policy. The scan re-anchors at
// the clock, which lower-bounds every pending event.
//
// Storage is reused: the events are gathered into the spare slice and
// the buckets truncated in place, and a shrink only shortens the bucket
// array, so the buckets past its length keep their capacity for the next
// grow.
func (s *sched) rebuild(nb int) {
	width := s.gapEWMA * calGapFactor
	if !(width > 0) {
		width = cmp.Or(s.width, 1) // all ties: any width is correct
	}
	all := s.spare
	for i, b := range s.buckets {
		all = append(all, b...)
		clear(b)
		s.buckets[i] = b[:0]
	}
	all = append(all, s.far...)
	clear(s.far)
	s.far = s.far[:0]
	if nb > cap(s.buckets) {
		grown := make([][]event, nb)
		copy(grown, s.buckets[:cap(s.buckets)])
		s.buckets = grown
	}
	s.buckets = s.buckets[:nb]
	s.mask = nb - 1
	s.width = width
	s.inv = 1 / width
	s.directs = 0
	s.setScan(s.lastT)
	for i := range all {
		s.place(all[i])
	}
	clear(all) // release closures
	s.spare = all[:0]
}
