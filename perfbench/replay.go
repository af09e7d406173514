package main

import (
	"time"

	"hap/internal/admission"
	"hap/internal/gm1"
	"hap/internal/mmpp"
)

// hapdFMax is hapd's default admission headroom ceiling.
const hapdFMax = 4.0

// ctrlLayers reports the control-plane layers of a traced hapd run: the
// ctrl timers and counters the daemon exports on /metrics, and a replay
// of the fits it published — its decision history rings — through the
// calls ctrl makes per stream (MMPP2 transform, warm-started G/M/1 solve,
// MaxScale) and per aggregate (superposition, solve, MaxScale).
func ctrlLayers(r *run, m map[string]float64, history [][]fitReply) {
	div := func(a, b float64) float64 {
		if b > 0 {
			return a / b
		}
		return 0
	}
	refits := m["hap_ctrl_refits_total"]
	r.setL("ctrl.refit_ms", 1000*div(m["hap_ctrl_refit_seconds_sum"], m["hap_ctrl_refit_count"]))
	r.setL("ctrl.solve_ms", 1000*div(m["hap_ctrl_solve_seconds_sum"], m["hap_ctrl_solve_count"]))
	r.setL("ctrl.em_iters_per_refit", div(m["hap_fit_em_iterations_total"], refits))
	r.setL("gm1.sigma_iters_per_solve", div(m["hap_gm1_sigma_iterations_total"], m["hap_gm1_solves_total"]))
	r.setL("ctrl.refit_useful_ratio", div(refits, refits+m["hap_ctrl_refits_skipped_total"]+m["hap_ctrl_pool_rejects_total"]))
	r.setL("fit.em_iters", m["hap_fit_em_iterations_total"])
	r.setL("fit.em_s", m["hap_ctrl_refit_seconds_sum"])
	// The exposition has no per-refit window sizes; the history rings'
	// mean samples × iterations per refit stands in for all refits.
	var sampleIters, recs float64
	for _, h := range history {
		for _, rec := range h {
			sampleIters += float64(rec.Fit.WindowN * rec.Fit.Iterations)
			recs++
		}
	}
	if recs > 0 && sampleIters > 0 {
		r.setL("fit.em_ns_per_sample_iter", 1e9*m["hap_ctrl_refit_seconds_sum"]/(sampleIters/recs*refits))
	}

	var lst, solve, admit []float64
	var last []mmpp.MMPP2
	for _, h := range history {
		warm := 0.0
		for _, rec := range h {
			f := rec.Fit
			mdl := mmpp.MMPP2{R0: f.R0, R1: f.R1, Q01: f.Q01, Q10: f.Q10}
			t0 := time.Now()
			lap, err := mdl.InterarrivalLaplace()
			t1 := time.Now()
			if err != nil {
				continue
			}
			lam := mdl.MeanRate()
			res, err := gm1.Solve(gm1.Laplace(lap), lam, hapdMu, &gm1.Options{WarmSigma: warm})
			t2 := time.Now()
			if err != nil {
				warm = 0
				continue
			}
			warm = res.Sigma
			laplaceAt := func(s float64) gm1.Laplace {
				l, _ := mmpp.MMPP2{R0: s * mdl.R0, R1: s * mdl.R1, Q01: mdl.Q01, Q10: mdl.Q10}.InterarrivalLaplace()
				return gm1.Laplace(l)
			}
			_, _, _ = admission.MaxScale(laplaceAt, func(s float64) float64 { return s * lam },
				hapdMu, hapdTarget, hapdFMax, 0)
			t3 := time.Now()
			lst = append(lst, float64(t1.Sub(t0).Nanoseconds())/1e3)
			solve = append(solve, float64(t2.Sub(t1).Nanoseconds())/1e3)
			admit = append(admit, float64(t3.Sub(t2).Nanoseconds())/1e6)
		}
		if n := len(h); n > 0 {
			f := h[n-1].Fit
			last = append(last, mmpp.MMPP2{R0: f.R0, R1: f.R1, Q01: f.Q01, Q10: f.Q10})
		}
	}
	r.setL("stream.lst_us", median(lst))
	r.setL("stream.solve_us", median(solve))
	r.setL("stream.admit_ms", median(admit))
	if len(last) == 0 {
		return
	}

	// The aggregate over each stream's latest fit, as the daemon's last
	// tick computed it; three replays, medians reported.
	var sp, so, ad []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		sup, err := mmpp.SuperposeMMPP2(last...)
		t1 := time.Now()
		if err != nil {
			return
		}
		lap, err := sup.InterarrivalLaplace()
		if err != nil {
			return
		}
		lam, err := sup.MeanRate()
		if err != nil {
			return
		}
		if _, err := gm1.Solve(gm1.Laplace(lap), lam, hapdMu, nil); err != nil {
			return
		}
		t2 := time.Now()
		laplaceAt := func(s float64) gm1.Laplace {
			l, err := sup.ScaleRates(s).InterarrivalLaplace()
			if err != nil {
				return func(float64) float64 { return 1 }
			}
			return gm1.Laplace(l)
		}
		_, _, _ = admission.MaxScale(laplaceAt, func(s float64) float64 { return s * lam },
			hapdMu, hapdTarget, hapdFMax, 0)
		t3 := time.Now()
		sp = append(sp, float64(t1.Sub(t0).Nanoseconds())/1e6)
		so = append(so, float64(t2.Sub(t1).Nanoseconds())/1e6)
		ad = append(ad, float64(t3.Sub(t2).Nanoseconds())/1e6)
		r.setL("agg.states", float64(len(sup.Rates)))
	}
	r.setL("agg.superpose_ms", median(sp))
	r.setL("agg.solve_ms", median(so))
	r.setL("agg.admit_ms", median(ad))
}
