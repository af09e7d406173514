package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"hap/internal/core"
	"hap/internal/fit"
	"hap/internal/net"
	"hap/internal/netgen"
	"hap/internal/sim"
)

// Workload parameters. Each batch job is sized to take about three
// seconds on a 2-core Xeon, so that a run holds several jobs and reports
// their median: sub-second jobs were seen to swing by 15% between runs.
const (
	// hapsim: the paper's Section 4 parameters (μ″ = 20, ρ ≈ 0.41) with
	// busy-period tracking, one source, one core. ~340 pending events:
	// the heap side of the scheduler's hybrid switch.
	simMu      = 20.0
	simHorizon = 5e5

	// fanin: 48 paper-parameter sources through near-instant edges into
	// one bottleneck at ρ ≈ 0.8. ~7.7k pending events: the calendar side,
	// nearly twice the scheduler's 4096-event switch. 128 sources (~21k
	// pending) spilled the event list and the per-source state out of the
	// 2 MiB L2 cache; interleaved with identical hapsim jobs, their job
	// times spread 0.26 (interquartile range over median) against 0.15
	// for 48 and 0.13 for 32 sources.
	faninK       = 48
	faninEdgeMu  = 1e5
	faninMu      = 495.0 // 48 · λ̄ / 0.8
	faninHorizon = 8000.0

	// hapfit: a seeded HAP trace of 10⁶ model seconds (≈8.25·10⁶
	// arrivals), fitted with the default candidate set and the paper's
	// 5×3 tree shape.
	fitHorizon = 1e6
	fitMu      = 20.0

	// setupLaunches is how many minimal jobs the setup_s median rests on,
	// after one unmeasured launch that warms the page cache.
	setupLaunches = 41
	// minJobs is the fewest timed jobs a batch run reports a median of.
	minJobs = 3
)

// exactDelay is hap.SolveExact's mean delay at the Section 4 parameters
// (μ″ = 20): 0.276 s at modulator bounds (14 users, 110 applications),
// stable to <0.1% under further widening (EXPERIMENTS.md, E1). Solving it
// takes minutes, so the benchmark uses the recorded value.
const exactDelay = 0.276

// delayCeiling bounds a single run's simulated mean delay as a multiple
// of exactDelay. HAP's running mean converges slowly (E6): over 136 seeds
// at this horizon the estimate spanned 0.48×–11.2× the exact value,
// wider than the 0.26–0.52 s EXPERIMENTS.md records at a 4× longer
// horizon. The ceiling catches a queue that is grossly wrong, not a
// subtle bias.
const delayCeiling = 40.0

// batchJob is one fixed job run repeatedly against a built program.
type batchJob struct {
	prog  string   // program name under -bin
	args  []string // the timed job
	setup []string // a minimal job with the same flags: the fixed launch cost
	check func(procStats) error
}

// runBatch measures setup_s as the median of setupLaunches minimal jobs,
// then repeats the timed job for the run's budget (at least minJobs
// times) and reports the medians of answer_s and cpu_s over the jobs
// whose outputs passed their checks.
func runBatch(ctx context.Context, r *run, j batchJob) error {
	bin := filepath.Join(r.bin, j.prog)
	var setups []float64
	for i := 0; i <= setupLaunches; i++ {
		st, err := runProgram(ctx, bin, j.setup...)
		if err != nil {
			return err
		}
		if st.exit != 0 {
			return fmt.Errorf("%s %v exited %d: %s", j.prog, j.setup, st.exit, st.stderr)
		}
		if i > 0 {
			setups = append(setups, st.wall.Seconds())
		}
	}
	r.set("setup_s", "s", median(setups))

	var walls, cpus, rss []float64
	budget := time.Duration(r.seconds * float64(time.Second))
	t0 := time.Now()
	for n := 0; n < minJobs || time.Since(t0)+time.Duration(median(walls)/2*float64(time.Second)) < budget; n++ {
		st, err := runProgram(ctx, bin, j.args...)
		if err != nil {
			return fmt.Errorf("%s: %w", j.prog, err)
		}
		r.attempted++
		if st.exit != 0 {
			r.failed++
			r.fail("%s exited %d: %s", j.prog, st.exit, lastLine(st.stderr))
			continue
		}
		if err := j.check(st); err != nil {
			r.failed++
			r.fail("%s output: %v", j.prog, err)
			continue
		}
		walls = append(walls, st.wall.Seconds())
		cpus = append(cpus, st.cpu.Seconds())
		rss = append(rss, st.rssMB())
	}
	r.set("answer_s", "s", median(walls))
	r.set("cpu_s", "s", median(cpus))
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d jobs, answer_s %.3g, cpu_s %.3g, peak_rss_mb %.4g\n",
		r.workload, len(walls), walls, cpus, rss)
	return nil
}

func lastLine(b []byte) string {
	s := strings.TrimRight(string(b), "\n")
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// ---- hapsim ----

func hapsimArgs(seed int64, horizon float64) []string {
	return []string{"-mu3", f64(simMu), "-horizon", f64(horizon), "-busy", "-parallel", "1",
		"-seed", strconv.FormatInt(seed, 10)}
}

func f64(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// simSummary is what the hapsim checks look at.
type simSummary struct {
	events, arrivals, departures int64
	rate, delay, meanQueue       float64
	maxQueue, busyFraction       float64
	truncated                    bool
}

var (
	reSimEvents = regexp.MustCompile(`(?m)^events (\d+), arrivals (\d+), departures (\d+)`)
	reSimRate   = regexp.MustCompile(`(?m)^observed rate\s+(\S+) msgs/s`)
	reSimDelay  = regexp.MustCompile(`(?m)^mean delay\s+(\S+) s`)
	reSimQueue  = regexp.MustCompile(`(?m)^mean queue length\s+(\S+) \(max (\S+)\)`)
	reSimBusy   = regexp.MustCompile(`(?m)^busy periods\s+\d+ \(busy fraction (\S+)\)`)
	reWarning   = regexp.MustCompile(`(?m)^warning:`)
)

func parseHapsim(out []byte) (simSummary, error) {
	var s simSummary
	nums := func(re *regexp.Regexp) ([]string, error) {
		m := re.FindSubmatch(out)
		if m == nil {
			return nil, fmt.Errorf("no line matching %q", re)
		}
		var ss []string
		for _, b := range m[1:] {
			ss = append(ss, string(b))
		}
		return ss, nil
	}
	var errs []error
	if m, err := nums(reSimEvents); err == nil {
		s.events, _ = strconv.ParseInt(m[0], 10, 64)
		s.arrivals, _ = strconv.ParseInt(m[1], 10, 64)
		s.departures, _ = strconv.ParseInt(m[2], 10, 64)
	} else {
		errs = append(errs, err)
	}
	for _, p := range []struct {
		re  *regexp.Regexp
		dst []*float64
	}{
		{reSimRate, []*float64{&s.rate}},
		{reSimDelay, []*float64{&s.delay}},
		{reSimQueue, []*float64{&s.meanQueue, &s.maxQueue}},
		{reSimBusy, []*float64{&s.busyFraction}},
	} {
		m, err := nums(p.re)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for i, d := range p.dst {
			v, err := strconv.ParseFloat(m[i], 64)
			if err != nil {
				errs = append(errs, err)
			}
			*d = v
		}
	}
	s.truncated = reWarning.Match(out)
	return s, errors.Join(errs...)
}

// checkSim holds a hapsim result to the model: the observed rate and
// utilisation against λ̄ and ρ, message conservation, Little's law, and
// the mean delay against the exact solution and the Poisson floor.
func checkSim(s simSummary) error {
	lam := core.PaperParams(simMu).MeanRate()
	rho := lam / simMu
	var errs []error
	if s.truncated {
		errs = append(errs, errors.New("run stopped before its horizon"))
	}
	// Over 5·10⁵ s the HAP rate estimate has a relative standard
	// deviation near 3%; 12% is four of them.
	if d := math.Abs(s.rate/lam - 1); d > 0.12 {
		errs = append(errs, fmt.Errorf("observed rate %g is %.1f%% off λ̄ = %g", s.rate, 100*d, lam))
	}
	if d := math.Abs(s.busyFraction/rho - 1); d > 0.12 {
		errs = append(errs, fmt.Errorf("busy fraction %g is %.1f%% off ρ = %g", s.busyFraction, 100*d, rho))
	}
	if inSys := s.arrivals - s.departures; inSys < 0 || float64(inSys) > s.maxQueue {
		errs = append(errs, fmt.Errorf("conservation: %d arrivals, %d departures, max queue %g", s.arrivals, s.departures, s.maxQueue))
	}
	if d := math.Abs(s.meanQueue/(s.rate*s.delay) - 1); d > 0.02 {
		errs = append(errs, fmt.Errorf("Little's law: L = %g but λ·T = %g", s.meanQueue, s.rate*s.delay))
	}
	if x := s.delay / exactDelay; x > delayCeiling {
		errs = append(errs, fmt.Errorf("mean delay %g s is %.3g× the exact %g s, above %g×", s.delay, x, exactDelay, delayCeiling))
	}
	// The delay floor is the M/M/1 mean delay 1/(μ″ − λ) at the run's own
	// observed rate, near 0.3× exact: the queue relaxes within seconds
	// while the HAP rate moves over minutes, so the run's delay averages
	// 1/(μ″ − λ(t)) over its rate path, which by Jensen's inequality is no
	// less than the Poisson delay at the mean rate. Over 120 seeds the
	// lowest run reached 0.48× exact and 1.61× its floor.
	if s.rate < simMu {
		if floor := 1 / (simMu - s.rate); s.delay < floor {
			errs = append(errs, fmt.Errorf("mean delay %g s is below %g s, an M/M/1 queue's at the observed rate", s.delay, floor))
		}
	}
	return errors.Join(errs...)
}

func hapsimRun(ctx context.Context, r *run) error {
	seed := subSeed(r.seed, 0)
	return runBatch(ctx, r, batchJob{
		prog:  "hapsim",
		args:  hapsimArgs(seed, simHorizon),
		setup: hapsimArgs(seed, 1),
		check: func(st procStats) error { return checkSimOutput(r, st) },
	})
}

func checkSimOutput(r *run, st procStats) error {
	s, err := parseHapsim(st.stdout)
	if err != nil {
		return err
	}
	r.count("sim.events", s.events)
	return checkSim(s)
}

// ---- fanin ----

func faninArgs(seed int64, horizon float64, jsonPath string) []string {
	return []string{"-topo", "fanin", "-k", strconv.Itoa(faninK), "-edge-mu", f64(faninEdgeMu),
		"-mu", f64(faninMu), "-horizon", f64(horizon), "-seed", strconv.FormatInt(seed, 10),
		"-json", jsonPath}
}

// netNode and netJSON are the parts of hapnet -json the checks read.
type netNode struct {
	Name        string `json:"name"`
	In          int64  `json:"in"`
	Forwarded   int64  `json:"forwarded"`
	Delivered   int64  `json:"delivered"`
	DroppedFull int64  `json:"dropped_full"`
}

type netJSON struct {
	Nodes       []netNode `json:"nodes"`
	Hops        []int64   `json:"hops"`
	Offered     int64     `json:"offered"`
	Delivered   int64     `json:"delivered"`
	DroppedFull int64     `json:"dropped_full"`
	DroppedHops int64     `json:"dropped_hops"`
	InFlight    int64     `json:"in_flight"`
	Events      int64     `json:"events"`
	Truncated   bool      `json:"truncated"`
}

// faninRateBand bounds the offered rate's relative distance from
// 48 × λ̄. One paper-parameter source's arrival count over 8000 s has a
// relative standard deviation of 20.1% (1500 seeds; 29.7% over 3000 s):
// users live 1000 s, so a run sees only a few user lifetimes. Over 48
// independent sources that is 2.9%, and 15% is five of them. The sources
// also start low: sim.HAPSource's stationary start schedules the live
// users' application clocks but none of their applications, which cost
// 2.5% of the arrivals over 3000 s (3000 seeds: 24142 against
// λ̄·3000 = 24750, 4.6 standard errors) and 0.8% over 8000 s (1500
// seeds, 1.5 standard errors).
const faninRateBand = 0.15

// checkFanin checks packet conservation through the fan-in: every
// offered packet is delivered, dropped or still in flight; each edge
// forwards what it took in, bar its own backlog; every delivery happens
// at the bottleneck after exactly two node visits; and the offered load
// matches the sources' mean rate.
func checkFanin(n netJSON) error {
	var errs []error
	if n.Truncated {
		errs = append(errs, errors.New("run stopped before its horizon"))
	}
	if n.Offered != n.Delivered+n.DroppedFull+n.DroppedHops+n.InFlight {
		errs = append(errs, fmt.Errorf("conservation: offered %d != delivered %d + dropped %d + %d + in flight %d",
			n.Offered, n.Delivered, n.DroppedFull, n.DroppedHops, n.InFlight))
	}
	if n.DroppedFull+n.DroppedHops != 0 {
		errs = append(errs, fmt.Errorf("%d packets dropped on unbounded buffers", n.DroppedFull+n.DroppedHops))
	}
	if len(n.Nodes) != faninK+1 {
		return errors.Join(append(errs, fmt.Errorf("%d nodes, want %d", len(n.Nodes), faninK+1))...)
	}
	var edgeIn, edgeFwd, backlog int64
	for _, e := range n.Nodes[:faninK] {
		edgeIn += e.In
		edgeFwd += e.Forwarded
		backlog += e.In - e.Forwarded
		if e.Delivered != 0 || e.In < e.Forwarded {
			errs = append(errs, fmt.Errorf("edge %s: in %d, forwarded %d, delivered %d", e.Name, e.In, e.Forwarded, e.Delivered))
		}
	}
	b := n.Nodes[faninK]
	if edgeIn != n.Offered || b.In > edgeFwd || b.Delivered != n.Delivered || b.Forwarded != 0 {
		errs = append(errs, fmt.Errorf("per-node accounting: edges in %d / offered %d, edges forwarded %d, bottleneck in %d delivered %d / %d",
			edgeIn, n.Offered, edgeFwd, b.In, b.Delivered, n.Delivered))
	}
	if backlog+(edgeFwd-b.In)+(b.In-b.Delivered) != n.InFlight {
		errs = append(errs, fmt.Errorf("in flight %d != edge backlog %d + links %d + bottleneck %d",
			n.InFlight, backlog, edgeFwd-b.In, b.In-b.Delivered))
	}
	if len(n.Hops) != 3 || n.Hops[2] != n.Delivered {
		errs = append(errs, fmt.Errorf("hop histogram %v: every delivery should take 2 node visits", n.Hops))
	}
	lam := faninK * core.PaperParams(faninMu).MeanRate()
	if d := math.Abs(float64(n.Offered)/faninHorizon/lam - 1); d > faninRateBand {
		errs = append(errs, fmt.Errorf("offered rate %g/s is %.1f%% off %g/s", float64(n.Offered)/faninHorizon, 100*d, lam))
	}
	return errors.Join(errs...)
}

func faninRun(ctx context.Context, r *run) error {
	seed := subSeed(r.seed, 1)
	out := filepath.Join(r.work, "fanin.json")
	return runBatch(ctx, r, batchJob{
		prog:  "hapnet",
		args:  faninArgs(seed, faninHorizon, out),
		setup: faninArgs(seed, 0.01, filepath.Join(r.work, "fanin-setup.json")),
		check: func(procStats) error { return checkFaninFile(r, out) },
	})
}

func checkFaninFile(r *run, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var n netJSON
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	r.count("sim.events", n.Events)
	r.count("net.delivered", n.Delivered)
	return checkFanin(n)
}

// ---- hapfit ----

// fitInput generates the hapfit trace from the workload seed and writes
// it as a one-column CSV, plus a 200-arrival prefix for the minimal job.
func fitInput(r *run) (times []float64, path, mini string, err error) {
	s, err := netgen.GenerateHAP(core.PaperParams(fitMu), fitHorizon, subSeed(r.seed, 2))
	if err != nil {
		return nil, "", "", err
	}
	times = make([]float64, len(s.Arrivals))
	for i, a := range s.Arrivals {
		times[i] = a.T
	}
	s = nil
	path = filepath.Join(r.work, "trace.csv")
	mini = filepath.Join(r.work, "trace-mini.csv")
	if err := writeTimes(path, times); err != nil {
		return nil, "", "", err
	}
	if err := writeTimes(mini, times[:200]); err != nil {
		return nil, "", "", err
	}
	debug.FreeOSMemory()
	return times, path, mini, nil
}

// writeTimes writes times in hapgen -mode trace's format (a header, then
// one timestamp per line to 10 significant digits) and syncs the file,
// so the first timed job does not race its write-back.
func writeTimes(path string, times []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := []byte("arrival_s\n")
	for _, t := range times {
		buf = strconv.AppendFloat(buf, t, 'g', 10, 64)
		buf = append(buf, '\n')
		if len(buf) > 1<<16 {
			if _, err := w.Write(buf); err != nil {
				f.Close()
				return err
			}
			buf = buf[:0]
		}
	}
	_, werr := w.Write(buf)
	return errors.Join(werr, w.Flush(), f.Sync(), f.Close())
}

func hapfitArgs(path string) []string {
	return []string{"-in", path, "-l", "5", "-m", "3", "-json"}
}

// checkFit holds a hapfit report to the trace: every arrival parsed,
// mmpp2 selected, and the fitted MMPP2 rate within 5% of the rate of the
// interarrivals EM consumed. EM fits a 2·10⁵-sample prefix, so the
// whole-trace rate can sit 25% away on a HAP trace; checkFit reports that
// gap but holds the fitter only to the data it was given.
func checkFit(rep *fit.Report, times []float64) (iters int, err error) {
	var errs []error
	if rep.Trace.N != int64(len(times)) {
		errs = append(errs, fmt.Errorf("read %d arrivals, wrote %d", rep.Trace.N, len(times)))
	}
	if rep.Best != "mmpp2" {
		errs = append(errs, fmt.Errorf("best model %q, want mmpp2", rep.Best))
	}
	var mm *fit.Candidate
	for i := range rep.Candidates {
		if rep.Candidates[i].Name == "mmpp2" {
			mm = &rep.Candidates[i]
		}
	}
	if mm == nil || mm.MMPP2 == nil {
		return 0, errors.Join(append(errs, errors.New("no mmpp2 fit in the report"))...)
	}
	n := mm.MMPP2.Samples
	if n < 1 || n >= len(times) {
		return 0, errors.Join(append(errs, fmt.Errorf("mmpp2 used %d samples of %d", n, len(times)))...)
	}
	sorted := times
	if !sort.Float64sAreSorted(sorted) {
		sorted = append([]float64(nil), times...)
		sort.Float64s(sorted)
	}
	prefix := float64(n) / (sorted[n] - sorted[0])
	if d := math.Abs(mm.Rate/prefix - 1); d > 0.05 {
		errs = append(errs, fmt.Errorf("mmpp2 rate %g is %.1f%% off the %g/s of the %d interarrivals it fitted", mm.Rate, 100*d, prefix, n))
	}
	fmt.Fprintf(os.Stderr, "perfbench: hapfit: mmpp2 rate %.4g/s, fitted-prefix rate %.4g/s, whole-trace rate %.4g/s\n",
		mm.Rate, prefix, rep.Trace.Rate)
	return mm.Diag.Iterations, errors.Join(errs...)
}

func hapfitRun(ctx context.Context, r *run) error {
	times, path, mini, err := fitInput(r)
	if err != nil {
		return err
	}
	return runBatch(ctx, r, batchJob{
		prog:  "hapfit",
		args:  hapfitArgs(path),
		setup: hapfitArgs(mini),
		check: func(st procStats) error { return checkFitOutput(r, st, times) },
	})
}

func checkFitOutput(r *run, st procStats, times []float64) error {
	var rep fit.Report
	if err := json.Unmarshal(st.stdout, &rep); err != nil {
		return err
	}
	iters, err := checkFit(&rep, times)
	r.count("fit.em_iters", int64(iters))
	return err
}

// faninTopology builds exactly what hapnet -topo fanin builds for the
// workload's flags.
func faninTopology() (*net.Topology, []net.Ingress) {
	topo := net.FanIn("fanin", faninK, faninEdgeMu, faninMu, 0, 0)
	m := core.NewSymmetric(0.0055, 0.001, 0.01, 0.01, 0.1, faninMu, 5, 3)
	ings := make([]net.Ingress, faninK)
	for i := range ings {
		ings[i] = net.HAPIngress(m, i, faninK)
	}
	return topo, ings
}

// simConfig is hapsim's configuration for the workload's flags.
func simConfig(ctx context.Context, seed int64) sim.Config {
	return sim.Config{Horizon: simHorizon, Seed: seed, Ctx: ctx, Measure: sim.MeasureConfig{
		Warmup: simHorizon / 100, TrackBusy: true, KeepBusyPeriods: true, MaxBusyRetained: 1 << 20,
	}}
}
