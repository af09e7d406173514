// Command hapd is the live traffic control plane daemon: it ingests one
// or more UDP packet streams, continuously re-fits an MMPP2 over a
// sliding window of each on a shared fit-worker pool, re-solves the
// expected G/M/1 delay with warm starts, evaluates the admission bound
// per stream and over the superposed aggregate process, and serves
// decisions next to /metrics.
//
// Serve two streams on a 2-worker pool, a 50/s service rate and a
// 100 ms delay target, with a tighter 20 ms target on the first stream:
//
//	go run ./cmd/hapd -listen 127.0.0.1:0,127.0.0.1:0 -workers 2 \
//	    -mu3 50 -target 0.1 -targets 0.02,
//
// Point hapgen at a printed stream address, then:
//
//	curl http://<api>/v1/streams/s0/admit
//	curl http://<api>/v1/streams/s0/history
//	curl http://<api>/v1/aggregate/admit
//
// SIGTERM (or SIGINT) drains: every stream flushes a final fit before
// the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hap/internal/ctrl"
	"hap/internal/fit"
	"hap/internal/gm1"
	"hap/internal/haperr"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:0", "comma-separated UDP addresses, one stream each (port 0 picks freely)")
		httpA   = flag.String("http", "127.0.0.1:0", "decision API + /metrics address")
		mu3     = flag.Float64("mu3", 0, "message service rate for delay solves and admission (required)")
		target  = flag.Float64("target", 0, "admission delay target in seconds (required)")
		fmax    = flag.Float64("fmax", 4, "admission headroom search ceiling")
		refitN  = flag.Int("refit", 2000, "re-fit each stream every N arrivals")
		window  = flag.Float64("window", 30, "sliding fit window in seconds")
		minWin  = flag.Int("min-window", 64, "fewest retained timestamps worth fitting")
		stale   = flag.Duration("stale", 30*time.Second, "flag decisions whose fit is older than this as degraded (0 disables)")
		method  = flag.String("method", "bisect", "G/M/1 sigma solver: bisect | paper")
		emIter  = flag.Int("em-max-iter", 0, "MMPP2 EM iteration budget per refit (0 = default)")
		timeout = flag.Duration("timeout", 0, "exit after this long (0 = run until signalled)")

		workers = flag.Int("workers", 0, "shared fit-worker pool size (0 = one per stream)")
		history = flag.Int("history", 0, "per-stream decision history ring capacity (0 = default 64, negative disables)")
		aggMax  = flag.Int("agg-states", 0, "superposed aggregate chain state cap (0 = default 256)")
		targets = flag.String("targets", "", "comma-separated per-stream delay targets aligned with -listen; empty entries inherit -target")
		rates   = flag.String("rates", "", "comma-separated per-stream service rates aligned with -listen; empty entries inherit -mu3")
	)
	flag.Parse()
	if !(*mu3 > 0) || !(*target > 0) {
		fmt.Fprintln(os.Stderr, "hapd: -mu3 and -target are required and must be positive")
		flag.Usage()
		os.Exit(haperr.ExitUsage)
	}
	var sigma gm1.Method
	switch *method {
	case "bisect":
		sigma = gm1.MethodBisect
	case "paper":
		sigma = gm1.MethodPaper
	default:
		fmt.Fprintf(os.Stderr, "hapd: unknown -method %q\n", *method)
		os.Exit(haperr.ExitUsage)
	}

	addrs := strings.Split(*listen, ",")
	overrides, err := parseOverrides(*targets, *rates, len(addrs))
	if err != nil {
		fmt.Fprintln(os.Stderr, "hapd:", err)
		os.Exit(haperr.ExitUsage)
	}

	// The handler goes in before ctrl.New opens the sockets and starts the
	// API, so a signal that arrives as soon as the api line is out still
	// drains instead of killing the daemon.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	d, err := ctrl.New(ctrl.Config{
		ListenAddrs:        addrs,
		Overrides:          overrides,
		HTTPAddr:           *httpA,
		ServiceRate:        *mu3,
		TargetDelay:        *target,
		FMax:               *fmax,
		RefitEvery:         *refitN,
		Window:             *window,
		MinWindow:          *minWin,
		StaleAfter:         *stale,
		Workers:            *workers,
		HistorySize:        *history,
		MaxAggregateStates: *aggMax,
		Method:             sigma,
		EM:                 fit.EMOptions{MaxIter: *emIter},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hapd:", err)
		os.Exit(haperr.ExitCode(err))
	}
	// The smoke harness parses these lines to find the ephemeral ports.
	for _, s := range d.Streams() {
		fmt.Printf("stream %s: udp %s\n", s.ID, s.Addr())
	}
	fmt.Printf("api: http://%s\n", d.APIAddr())

	if err := d.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "hapd:", err)
		os.Exit(haperr.ExitCode(err))
	}
	fmt.Println("hapd: drained")
}

// parseOverrides zips the -targets and -rates comma lists into
// per-stream overrides. Each list aligns with -listen; empty entries
// (and a missing tail) inherit the global -target / -mu3.
func parseOverrides(targets, rates string, n int) ([]ctrl.StreamOverride, error) {
	if targets == "" && rates == "" {
		return nil, nil
	}
	out := make([]ctrl.StreamOverride, n)
	set := func(list, flagName string, field func(i int, v float64)) error {
		if list == "" {
			return nil
		}
		parts := strings.Split(list, ",")
		if len(parts) > n {
			return fmt.Errorf("-%s lists %d entries for %d streams", flagName, len(parts), n)
		}
		for i, p := range parts {
			if p = strings.TrimSpace(p); p == "" {
				continue // inherit
			}
			v, err := strconv.ParseFloat(p, 64)
			if err != nil || !(v > 0) {
				return fmt.Errorf("-%s entry %d: want a positive number, got %q", flagName, i, p)
			}
			field(i, v)
		}
		return nil
	}
	if err := set(targets, "targets", func(i int, v float64) { out[i].TargetDelay = v }); err != nil {
		return nil, err
	}
	if err := set(rates, "rates", func(i int, v float64) { out[i].ServiceRate = v }); err != nil {
		return nil, err
	}
	return out, nil
}
