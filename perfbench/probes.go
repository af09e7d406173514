package main

import (
	"math/rand"
	"sync"
	"time"

	"hap/internal/dist"
	"hap/internal/fit"
	"hap/internal/obs"
	"hap/internal/sim"
	"hap/internal/stats"
)

// Layer probes: fixed loops over one package's public calls, each timed
// as a whole and divided by its operation count. They isolate a layer's
// per-operation cost from the workload that exercises it; the traced run
// reports them next to the spans.

// probeSinkF keeps probe results live so the compiler cannot drop the
// measured calls.
var probeSinkF float64

// bestOf3 runs f three times and returns the fastest per-op time: the
// run least disturbed by co-tenants.
func bestOf3(f func() float64) float64 {
	best := f()
	for i := 0; i < 2; i++ {
		if v := f(); v < best {
			best = v
		}
	}
	return best
}

// schedProbe is ns per event of an Engine.Schedule/Run loop of no-op
// events holding pending events in flight: each event reschedules itself
// a pre-drawn exponential delay ahead, so the pending count stays at
// pending and the scheduler sits on the same side of its heap/calendar
// switch as the workload it stands for.
func schedProbe(pending int) float64 {
	if pending < 1 {
		pending = 1
	}
	const events = 3_000_000
	rng := rand.New(rand.NewSource(1))
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = rng.ExpFloat64() * float64(pending)
	}
	return bestOf3(func() float64 {
		e := sim.NewEngine(1e300, rand.New(rand.NewSource(2)), nil)
		e.SetMaxEvents(events)
		i := 0
		var fire func()
		fire = func() {
			i++
			e.ScheduleAfter(delays[i&4095], fire)
		}
		for k := 0; k < pending; k++ {
			e.Schedule(delays[k&4095], fire)
		}
		t0 := time.Now()
		e.Run()
		return float64(time.Since(t0).Nanoseconds()) / float64(e.Processed())
	})
}

// expDrawProbe is ns per unit-exponential draw through dist.ExpBatch, the
// sampler the HAP, ON-OFF and Poisson sources and the exponential servers
// draw from.
func expDrawProbe() float64 {
	const draws = 20_000_000
	return bestOf3(func() float64 {
		b := dist.NewExpBatch(rand.New(rand.NewSource(3)))
		s := 0.0
		t0 := time.Now()
		for i := 0; i < draws; i++ {
			s += b.Exp()
		}
		ns := float64(time.Since(t0).Nanoseconds()) / draws
		probeSinkF += s
		return ns
	})
}

// statsAddProbe is ns per measurement update as a departure makes one: a
// stats.Welford.Add of the delay and a stats.TimeWeighted.Update of the
// queue length.
func statsAddProbe() float64 {
	const adds = 20_000_000
	xs := make([]float64, 4096)
	rng := rand.New(rand.NewSource(4))
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	return bestOf3(func() float64 {
		var w stats.Welford
		var tw stats.TimeWeighted
		tw.Start(0, 0)
		t := 0.0
		t0 := time.Now()
		for i := 0; i < adds; i++ {
			x := xs[i&4095]
			t += x
			w.Add(x)
			tw.Update(t, float64(i&31))
		}
		ns := float64(time.Since(t0).Nanoseconds()) / adds
		probeSinkF += w.Mean() + tw.Mean()
		return ns
	})
}

// addSlideProbe is ns per ingest-side fit.TraceStats Add+Slide over a
// sliding window of window seconds at rate arrivals per second, the pair
// hapd's stream ingest makes per packet.
func addSlideProbe(window, rate float64) float64 {
	const adds = 2_000_000
	rng := rand.New(rand.NewSource(5))
	gaps := make([]float64, 4096)
	for i := range gaps {
		gaps[i] = rng.ExpFloat64() / rate
	}
	return bestOf3(func() float64 {
		ts, err := fit.NewTraceStats(fit.TraceConfig{SlideWindow: window})
		if err != nil {
			return 0
		}
		t := 0.0
		t0 := time.Now()
		for i := 0; i < adds; i++ {
			t += gaps[i&4095]
			_ = ts.Add(t)
			ts.Slide(t)
		}
		return float64(time.Since(t0).Nanoseconds()) / adds
	})
}

// gaugeSampler polls one gauge of the process-wide metrics registry —
// the family the programs export on -metrics — and keeps its maximum.
type gaugeSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  float64
}

func sampleGauge(name string, every time.Duration) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{})}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if v := obs.Default.Snapshot()[name]; v > g.max {
				g.max = v
			}
			select {
			case <-g.stop:
				return
			case <-t.C:
			}
		}
	}()
	return g
}

// done stops the sampler and returns the largest value it saw.
func (g *gaugeSampler) done() float64 {
	close(g.stop)
	g.wg.Wait()
	return g.max
}
