package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"hap/internal/dist"
)

// refHeap is the reference future event list the calendar is checked
// against: a container/heap min-heap ordered by (t, seq).
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// refPair drives the calendar and the reference through identical pushes.
type refPair struct {
	ref refHeap
	s   sched
}

func (p *refPair) push(e event) {
	heap.Push(&p.ref, e)
	p.s.push(e)
}

// pop pops one event from both structures and fails on any divergence in
// the (t, seq) total order.
func (p *refPair) pop(t *testing.T) event {
	t.Helper()
	want := heap.Pop(&p.ref).(event)
	got := p.s.pop()
	if got.t != want.t || got.seq != want.seq {
		t.Fatalf("pop order diverged: sched (t=%v seq=%d), reference (t=%v seq=%d)",
			got.t, got.seq, want.t, want.seq)
	}
	return want
}

// TestSchedMatchesHeapRandomized drives the calendar queue and a
// reference binary heap through identical randomized push/pop
// interleavings and asserts they agree on every pop. The time scales per
// trial span nine orders of magnitude so the calendar's width adaptation,
// bucket rollover, and direct-search fallback all fire; the push mix
// includes exact ties (same t, ordered by seq), small discrete clusters,
// and far-future outliers that overflow the slot arithmetic into the
// calendar's sorted overflow list.
func TestSchedMatchesHeapRandomized(t *testing.T) {
	scales := []float64{1e-6, 1e-3, 1.0, 1e3}
	for trial, scale := range scales {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		var p refPair
		var seq uint64
		now := 0.0
		for step := 0; step < 120000; step++ {
			if p.s.len() == 0 || rng.Float64() < 0.55 {
				var tm float64
				switch r := rng.Float64(); {
				case r < 0.05:
					tm = now // exact tie with the clock
				case r < 0.12:
					tm = now + float64(rng.Intn(3))*scale // clustered ties
				case r < 0.13:
					tm = 1e290 * (1 + rng.Float64()) // slot overflow → far list
				default:
					tm = now + rng.ExpFloat64()*scale
				}
				seq++
				p.push(event{t: tm, seq: seq})
			} else {
				now = p.pop(t).t
			}
			if p.s.len() != len(p.ref) {
				t.Fatalf("trial %d: size diverged: sched %d, reference %d", trial, p.s.len(), len(p.ref))
			}
		}
		for p.s.len() > 0 {
			p.pop(t)
		}
	}
}

// TestSchedMigrationSawtooth oscillates the pending count between ~5k and
// ~100 events, so every cycle grows the bucket array and halves it back
// down, checking order on every pop and that the drain really shrinks the
// calendar (the bucket count tracks occupancy, not the high-water mark).
func TestSchedMigrationSawtooth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var p refPair
	var seq uint64
	now := 0.0
	for cycle := 0; cycle < 6; cycle++ {
		for p.s.len() < 5000 {
			seq++
			p.push(event{t: now + rng.ExpFloat64(), seq: seq})
		}
		high := 0
		for p.s.len() > 100 {
			now = p.pop(t).t
			high = max(high, p.s.numBuckets())
		}
		if low := p.s.numBuckets(); low*8 > high || low*calLoad < p.s.len() {
			t.Fatalf("cycle %d: %d buckets at %d pending after %d at 5000; want a shrink to ~%d",
				cycle, low, p.s.len(), high, p.s.len())
		}
	}
	for p.s.len() > 0 {
		p.pop(t)
	}
}

// TestSchedBurstMigration covers the install-time shape: a large burst of
// pushes before any pop (staged, no gap EWMA yet), the calendar built at
// the first pop from the burst's earliest spacing, then a full drain.
func TestSchedBurstMigration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var p refPair
	var seq uint64
	for i := 0; i < 12000; i++ {
		seq++
		p.push(event{t: rng.Float64() * 1e4, seq: seq})
	}
	for p.s.len() > 0 {
		p.pop(t)
	}
}

// TestSchedAllTies drains a pending set where every event shares one
// timestamp — the degenerate zero-width case — asserting pure seq order.
func TestSchedAllTies(t *testing.T) {
	var s sched
	n := 5000
	for i := 0; i < n; i++ {
		s.push(event{t: 5, seq: uint64(i + 1)})
	}
	for i := 0; i < n; i++ {
		e := s.pop()
		if e.seq != uint64(i+1) {
			t.Fatalf("tie order broken: pop %d returned seq %d", i, e.seq)
		}
	}
}

// TestScheduleBeforeRunEarlierThanBurst is the regression test for the
// scan anchor: a burst scheduled before the run starts, followed by one
// event earlier than all of it but still in the future of the clock, must
// pop first. Anchoring the scan at the burst's earliest event instead of
// the clock parked the early event behind the scan, where it popped last
// and ran the clock backwards.
func TestScheduleBeforeRunEarlierThanBurst(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e := NewEngine(10, dist.NewStreams(1).Next(), nil)
	var times []float64
	record := func() { times = append(times, e.Now()) }
	for i := 0; i < 5000; i++ {
		e.Schedule(1+rng.Float64(), record)
	}
	e.Schedule(0.5, record)
	e.Run()
	if len(times) != 5001 {
		t.Fatalf("fired %d events, want 5001", len(times))
	}
	if times[0] != 0.5 {
		t.Fatalf("first event fired at %v, want 0.5", times[0])
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("clock ran backwards: event %d at %v after %v", i, times[i], times[i-1])
		}
	}
}

// TestCalendarSteadyStateZeroAlloc pins the zero-allocation contract of
// the calendar-queue steady state: once the structure is warm, a
// push/pop cycle at constant occupancy allocates nothing (the event-loop
// equivalent is one schedule per processed event).
func TestCalendarSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s sched
	var seq uint64
	now := 0.0
	for i := 0; i < 8192; i++ {
		seq++
		s.push(event{t: now + rng.ExpFloat64(), seq: seq})
	}
	// Warm the bucket capacities through a few full occupancy cycles.
	for i := 0; i < 4*8192; i++ {
		e := s.pop()
		now = e.t
		seq++
		s.push(event{t: now + rng.ExpFloat64(), seq: seq})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e := s.pop()
		now = e.t
		seq++
		s.push(event{t: now + rng.ExpFloat64(), seq: seq})
	})
	if allocs > 0 {
		t.Fatalf("calendar steady state allocates: %v allocs per push/pop cycle", allocs)
	}
}

// TestSchedPopOrder is a property test: under random pushes (with heavy
// time ties), pop order must equal the (t, seq) sort order — the engine's
// determinism guarantee that ties break by schedule order.
func TestSchedPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(500)
		var p refPair
		for i := 0; i < n; i++ {
			// Coarse times force frequent ties so seq ordering is exercised.
			p.push(event{t: float64(rng.Intn(40)), seq: uint64(i + 1), a: int32(i)})
		}
		for p.s.len() > 0 {
			p.pop(t)
		}
		if len(p.ref) != 0 {
			t.Fatalf("trial %d: calendar drained with %d reference events left", trial, len(p.ref))
		}
	}
}

// TestSchedInterleavedPushPop mixes pushes and pops, mirroring the
// engine's real access pattern, and checks the popped stream never goes
// backwards in (t, seq).
func TestSchedInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s sched
	var seq uint64
	lastT, lastSeq := math.Inf(-1), uint64(0)
	pops := 0
	for step := 0; step < 5000; step++ {
		if s.len() == 0 || rng.Intn(3) > 0 {
			seq++
			// Push times never before the last popped time, as the engine
			// guarantees (no scheduling into the past).
			base := max(lastT, 0)
			s.push(event{t: base + float64(rng.Intn(10)), seq: seq})
		} else {
			got := s.pop()
			pops++
			if got.t < lastT || (got.t == lastT && got.seq <= lastSeq) {
				t.Fatalf("step %d: pop (t=%v seq=%d) after (t=%v seq=%d)",
					step, got.t, got.seq, lastT, lastSeq)
			}
			lastT, lastSeq = got.t, got.seq
		}
	}
	if pops == 0 {
		t.Fatal("no pops exercised")
	}
}
