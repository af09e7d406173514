package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hap/internal/core"
	"hap/internal/fit"
	"hap/internal/net"
	"hap/internal/sim"
	"hap/internal/trace"
)

// Traced runs of the batch workloads. Each runs the workload's job once
// in-process, with spans around the calls into each layer and the
// scheduler gauge sampled, then once as the untraced binary for the
// tracing overhead, then the layer probes the workload's layers stand on.

// pendingEvery is the scheduler-gauge sampling period.
const pendingEvery = 20 * time.Millisecond

// untracedOnce runs the binary job once and returns its wall time; its
// output is checked like any timed job's, and its peak RSS reported.
func untracedOnce(ctx context.Context, r *run, j batchJob) (float64, error) {
	st, err := runProgram(ctx, filepath.Join(r.bin, j.prog), j.args...)
	if err != nil {
		return 0, err
	}
	r.setL("proc.peak_rss_mb", st.rssMB())
	r.attempted++
	if st.exit != 0 {
		r.failed++
		r.fail("%s exited %d: %s", j.prog, st.exit, lastLine(st.stderr))
		return 0, nil
	}
	if err := j.check(st); err != nil {
		r.failed++
		r.fail("%s output: %v", j.prog, err)
		return 0, nil
	}
	return st.wall.Seconds(), nil
}

// overhead sets tracing_overhead_pct from the traced job's span and the
// untraced binary's wall time.
func overhead(r *run, traced time.Duration, untraced float64) {
	if untraced > 0 {
		r.setL("tracing_overhead_pct", 100*(traced.Seconds()-untraced)/untraced)
	}
}

// simLayerProbes reports the engine-level probes: the scheduler at the
// workload's pending count, one exponential draw, one measurement update.
func simLayerProbes(r *run, pending float64) {
	r.setL("sched.ns_per_event", schedProbe(int(pending)))
	r.setL("dist.ns_per_exp_draw", expDrawProbe())
	r.setL("stats.ns_per_add", statsAddProbe())
}

func hapsimTraced(ctx context.Context, r *run) error {
	zeroPerLayer(r)
	seed := subSeed(r.seed, 0)
	tr := &tracer{}
	g := sampleGauge("hap_sim_sched_pending", pendingEvery)
	root := tr.begin("hapsim", -1)
	sp := tr.begin("sim.RunHAP", root)
	res := sim.RunHAP(core.PaperParams(simMu), simConfig(ctx, seed))
	tr.end(sp)
	tr.end(root)
	pending := g.done()
	r.attempted++
	if res.Err != nil {
		return res.Err
	}
	m := res.Meas
	if err := checkSim(simSummary{
		events: res.Events, arrivals: res.Arrivals, departures: res.Departures,
		rate: m.ObservedRate(), delay: m.MeanDelay(), meanQueue: m.MeanQueue(),
		maxQueue: m.Queue.Max(), busyFraction: m.Busy.BusyFraction(), truncated: res.Truncated,
	}); err != nil {
		r.failed++
		r.fail("in-process hapsim: %v", err)
	}
	r.count("sim.events", res.Events)
	r.setL("sim.events", float64(res.Events))
	r.setL("sim.run_s", tr.dur(sp).Seconds())
	r.setL("sim.events_per_s", float64(res.Events)/tr.dur(sp).Seconds())
	r.setL("sim.pending_max", pending)

	wall, err := untracedOnce(ctx, r, batchJob{prog: "hapsim", args: hapsimArgs(seed, simHorizon),
		check: func(st procStats) error { return checkSimOutput(r, st) }})
	if err != nil {
		return err
	}
	overhead(r, tr.dur(root), wall)
	simLayerProbes(r, pending)
	return nil
}

func faninTraced(ctx context.Context, r *run) error {
	zeroPerLayer(r)
	seed := subSeed(r.seed, 1)
	topo, ings := faninTopology()
	tr := &tracer{}
	g := sampleGauge("hap_sim_sched_pending", pendingEvery)
	root := tr.begin("hapnet", -1)
	sp := tr.begin("net.Run", root)
	res := net.Run(topo, ings, net.Config{Horizon: faninHorizon, Seed: seed, Ctx: ctx,
		Measure: sim.MeasureConfig{Warmup: faninHorizon / 100}})
	tr.end(sp)
	tr.end(root)
	pending := g.done()
	r.attempted++
	if res.Err != nil {
		return res.Err
	}
	nj := netJSON{Hops: res.E2E.Hops, Offered: res.E2E.Offered, Delivered: res.E2E.Delivered,
		DroppedFull: res.E2E.DroppedFull, DroppedHops: res.E2E.DroppedHops, InFlight: res.InFlight,
		Events: res.Events, Truncated: res.Truncated}
	var forwarded int64
	for _, c := range res.Node {
		nj.Nodes = append(nj.Nodes, netNode{c.Name, c.In, c.Forwarded, c.Delivered, c.DroppedFull})
		forwarded += c.Forwarded
	}
	if err := checkFanin(nj); err != nil {
		r.failed++
		r.fail("in-process fanin: %v", err)
	}
	r.count("sim.events", res.Events)
	r.count("net.delivered", res.E2E.Delivered)
	run := tr.dur(sp)
	r.setL("sim.events", float64(res.Events))
	r.setL("sim.run_s", run.Seconds())
	r.setL("sim.events_per_s", float64(res.Events)/run.Seconds())
	r.setL("sim.pending_max", pending)
	r.setL("net.delivered", float64(res.E2E.Delivered))
	r.setL("net.forwarded", float64(forwarded))
	if res.E2E.Delivered > 0 {
		r.setL("net.events_per_packet", float64(res.Events)/float64(res.E2E.Delivered))
		r.setL("net.ns_per_packet", float64(run.Nanoseconds())/float64(res.E2E.Delivered))
	}

	out := filepath.Join(r.work, "fanin.json")
	wall, err := untracedOnce(ctx, r, batchJob{prog: "hapnet", args: faninArgs(seed, faninHorizon, out),
		check: func(procStats) error { return checkFaninFile(r, out) }})
	if err != nil {
		return err
	}
	overhead(r, tr.dur(root), wall)
	simLayerProbes(r, pending)
	return nil
}

func hapfitTraced(ctx context.Context, r *run) error {
	zeroPerLayer(r)
	times, path, _, err := fitInput(r)
	if err != nil {
		return err
	}
	opt := fit.Options{AppTypes: 5, Fanout: 3}
	tr := &tracer{}

	// The job as hapfit runs it: read, then select among the candidates.
	root := tr.begin("hapfit", -1)
	read := tr.begin("trace.ReadTimestamps", root)
	got, err := trace.ReadTimestamps(path)
	tr.end(read)
	if err != nil {
		return err
	}
	fs := tr.begin("fit.Fit", root)
	rep, err := fit.Fit(ctx, got, opt)
	tr.end(fs)
	tr.end(root)
	r.attempted++
	if err != nil {
		return err
	}
	iters, cerr := checkFit(rep, times)
	if cerr != nil {
		r.failed++
		r.fail("in-process hapfit: %v", cerr)
	}
	r.count("fit.em_iters", int64(iters))
	r.setL("trace.read_s", tr.dur(read).Seconds())

	// The same selection on one worker, then each stage on its own:
	// fit.select_s is the serial fit.Fit span minus its stages.
	serial := opt
	serial.Workers = 1
	sel := tr.begin("fit.Fit/serial", -1)
	if _, err := fit.Fit(ctx, got, serial); err != nil {
		return err
	}
	tr.end(sel)
	an := tr.begin("fit.Analyze", -1)
	ts, err := fit.Analyze(got, fit.TraceConfig{})
	tr.end(an)
	if err != nil {
		return err
	}
	po := tr.begin("fit.FitPoisson", -1)
	_, _ = fit.FitPoisson(ts)
	tr.end(po)
	oo := tr.begin("fit.FitOnOff", -1)
	onoff, oerr := fit.FitOnOff(ts, opt)
	tr.end(oo)
	hp := tr.begin("fit.FitSymmetricHAP", -1)
	hap, herr := fit.FitSymmetricHAP(ts, opt)
	tr.end(hp)
	if oerr != nil || herr != nil {
		r.fail("moment fits: onoff %v, hap %v", oerr, herr)
	}
	sorted := append([]float64(nil), got...)
	sort.Float64s(sorted)
	em := tr.begin("fit.FitMMPP2EM", -1)
	mm, err := fit.FitMMPP2EM(ctx, sorted, opt.EM)
	tr.end(em)
	if err != nil {
		r.fail("EM: %v", err)
	}
	r.count("fit.em_iters", int64(mm.Diag.Iterations))
	r.setL("fit.stats_s", tr.dur(an).Seconds())
	r.setL("fit.moment_s", (tr.dur(oo) + tr.dur(hp)).Seconds())
	r.setL("fit.moment_iters", float64(onoff.Diag.Iterations+hap.Diag.Iterations))
	r.setL("fit.em_s", tr.dur(em).Seconds())
	r.setL("fit.em_iters", float64(mm.Diag.Iterations))
	if n := mm.Samples * mm.Diag.Iterations; n > 0 {
		r.setL("fit.em_ns_per_sample_iter", float64(tr.dur(em).Nanoseconds())/float64(n))
	}
	parts := tr.dur(an) + tr.dur(po) + tr.dur(oo) + tr.dur(hp) + tr.dur(em)
	r.setL("fit.select_s", (tr.dur(sel) - parts).Seconds())

	wall, err := untracedOnce(ctx, r, batchJob{prog: "hapfit", args: hapfitArgs(path),
		check: func(st procStats) error { return checkFitOutput(r, st, times) }})
	if err != nil {
		return err
	}
	overhead(r, tr.dur(root), wall)
	fmt.Fprintf(os.Stderr, "perfbench: spans hapfit: self %v of %v (read %v, fit %v)\n",
		tr.self(root), tr.dur(root), tr.dur(read), tr.dur(fs))
	return nil
}
