package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // 10 beyond rank 9990
		{9999, 99, true},    // p99.9 leaves 9, p99 leaves 99
		{1000, 99, true},    // exactly 10 beyond rank 990
		{999, 95, true},     // p99 leaves 9
		{300, 95, true},     // a 20 s hapd run's decisions
		{199, 90, true},     // p95 leaves 9
		{20, 50, true},
		{19, 0, false}, // not even the median has 10 beyond it
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestTailFallsBack(t *testing.T) {
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, got := tail(xs, 99); got != 95 || v != 285 {
		t.Errorf("tail(300 samples, 99) = %g at p%g; want 285 at p95", v, got)
	}
	if v, got := tail(xs, 90); got != 90 || v != 270 {
		t.Errorf("tail(300 samples, 90) = %g at p%g; want 270 at p90", v, got)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	kids := [][2]time.Time{
		{at(1), at(3)},
		{at(2), at(5)},   // overlaps the first: [1,5] counts once
		{at(8), at(12)},  // runs past the parent: clipped to [8,10]
		{at(-2), at(-1)}, // outside the parent
	}
	if got, want := selfTime(at(0), at(10), kids), 4*time.Second; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(at(0), at(10), nil); got != 10*time.Second {
		t.Errorf("selfTime without children = %v, want 10s", got)
	}

	// Through the tracer: a root with two sequential children and one
	// grandchild, which must not count against the root.
	tr := &tracer{}
	root := tr.begin("root", -1)
	a := tr.begin("a", root)
	g := tr.begin("grandchild", a)
	tr.end(g)
	tr.end(a)
	b := tr.begin("b", root)
	tr.end(b)
	tr.end(root)
	tr.spans[root].start, tr.spans[root].end = at(0), at(10)
	tr.spans[a].start, tr.spans[a].end = at(1), at(4)
	tr.spans[g].start, tr.spans[g].end = at(2), at(3)
	tr.spans[b].start, tr.spans[b].end = at(6), at(7)
	if got := tr.self(root); got != 6*time.Second {
		t.Errorf("root self = %v, want 6s", got)
	}
	if got := tr.self(a); got != 2*time.Second {
		t.Errorf("child self = %v, want 2s", got)
	}
}

func TestMatchDecisions(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	triggers := []trigger{
		{250, at(0)},
		{500, at(100)},  // a packet before it was lost: count 500 arrives one packet late
		{750, at(200)},  // its refit was skipped: the fit jumps from 500 to 1000
		{1000, at(300)}, // observed normally after the skip
		{1250, at(400)}, // never reached before the polls end
	}
	// Each poll returns 1 ms after its fit was published.
	poll := func(ms float64, arrivals int64) observation {
		return observation{at: at(ms), published: at(ms - 1), arrivals: arrivals}
	}
	obs := []observation{
		poll(-5, 0),
		poll(1, 0),
		poll(3, 250),
		poll(101, 250),
		poll(102, 499),
		poll(105, 500),
		poll(201, 500),
		poll(250, 500),
		poll(303, 1000),
		poll(401, 1000),
	}
	got := matchDecisions(triggers, obs)
	want := []struct {
		observed bool
		ms       float64
	}{{true, 2}, {true, 4}, {false, 0}, {true, 2}, {false, 0}}
	if len(got) != len(want) {
		t.Fatalf("%d outcomes, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].observed != w.observed || got[i].latency != time.Duration(w.ms*float64(time.Millisecond)) {
			t.Errorf("trigger %d: observed %v after %v, want %v after %vms",
				got[i].arrivals, got[i].observed, got[i].latency, w.observed, w.ms)
		}
	}
}

func TestPromText(t *testing.T) {
	m := promText([]byte(`# HELP hap_gm1_solves_total x
# TYPE hap_gm1_solves_total counter
hap_gm1_solves_total{method="bisect",outcome="ok"} 12
hap_gm1_solves_total{method="bisect",outcome="unstable"} 3
hap_ctrl_refit_seconds_sum 0.5
hap_ctrl_refit_count 4
`))
	if m["hap_gm1_solves_total"] != 15 || m["hap_ctrl_refit_seconds_sum"] != 0.5 || m["hap_ctrl_refit_count"] != 4 {
		t.Errorf("promText = %v", m)
	}
}

func TestChecksRejectWrongOutput(t *testing.T) {
	good := simSummary{events: 9e6, arrivals: 4_100_000, departures: 4_099_990, rate: 8.3,
		delay: 0.3, meanQueue: 8.3 * 0.3, maxQueue: 900, busyFraction: 0.415}
	if err := checkSim(good); err != nil {
		t.Errorf("consistent hapsim output rejected: %v", err)
	}
	for name, mut := range map[string]func(*simSummary){
		"rate":         func(s *simSummary) { s.rate, s.meanQueue = 6, 6*0.3 },
		"utilisation":  func(s *simSummary) { s.busyFraction = 0.3 },
		"conservation": func(s *simSummary) { s.departures = s.arrivals + 1 },
		"little":       func(s *simSummary) { s.meanQueue *= 1.1 },
		"delay":        func(s *simSummary) { s.delay, s.meanQueue = 0.05, 8.3*0.05 },
		"truncated":    func(s *simSummary) { s.truncated = true },
	} {
		s := good
		mut(&s)
		if checkSim(s) == nil {
			t.Errorf("hapsim output with a wrong %s passed", name)
		}
	}

	n := faninOutput(66000) // λ̄ · 8000 s per source
	if err := checkFanin(n); err != nil {
		t.Errorf("consistent fan-in output rejected: %v", err)
	}
	lossy := n
	lossy.Delivered--
	if checkFanin(lossy) == nil {
		t.Error("fan-in output that loses a packet passed")
	}
	if checkFanin(faninOutput(66000*80/100)) == nil {
		t.Error("fan-in output offering 20% below its sources' mean rate passed")
	}
}

// faninOutput is a consistent hapnet -json report in which each source
// offered perEdge packets, two of them still queued at the first edge
// and one at the bottleneck.
func faninOutput(perEdge int64) netJSON {
	total := perEdge * faninK
	n := netJSON{Offered: total, Delivered: total - 3, InFlight: 3, Events: 1,
		Hops: []int64{0, 0, total - 3}}
	for i := 0; i < faninK; i++ {
		n.Nodes = append(n.Nodes, netNode{Name: "edge", In: perEdge, Forwarded: perEdge})
	}
	n.Nodes[0].Forwarded -= 2
	n.Nodes = append(n.Nodes, netNode{Name: "bottleneck", In: total - 2, Delivered: n.Delivered})
	return n
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and perfbench's metric
// and workload tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name  string  `json:"name"`
			Unit  string  `json:"unit"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if strings.Join(spec.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("command %v", spec.Command)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q unknown to perfbench", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, perfbench reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: declared %+v, perfbench %+v", i, m, endToEnd[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, perfbench reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: declared %+v, perfbench %+v", i, m, perLayer[i])
		}
	}
}
