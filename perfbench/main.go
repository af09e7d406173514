// Command perfbench is the repository benchmark. It runs one workload
// against the real binaries (hapsim, hapnet, hapfit, hapd) and prints one
// JSON result line:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured from
// outside the programs; with -trace 1 they are the per-layer ones, from a
// separate run that times calls into each package's public functions and
// reads the counters the programs already export. perfbench/run.sh builds
// everything from source and invokes this program; see perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one invocation accumulates: the metrics it will
// report, the operation accounting, the output-check failures and the
// exact counts the count guard compares.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	bin      string // directory holding the built programs
	work     string // scratch directory for generated inputs

	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
	counts    map[string]int64
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed output check; the run then reports correct=false.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// count records an exact count and fails the run if the same count was
// already recorded with a different value: repeated jobs at one seed must
// do exactly the same work.
func (r *run) count(name string, v int64) {
	if prev, ok := r.counts[name]; ok && prev != v {
		r.fail("%s is not repeatable at seed %d: %d then %d", name, r.seed, prev, v)
		return
	}
	r.counts[name] = v
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	untraced func(context.Context, *run) error
	traced   func(context.Context, *run) error
}{
	"hapsim": {hapsimRun, hapsimTraced},
	"fanin":  {faninRun, faninTraced},
	"hapfit": {hapfitRun, hapfitTraced},
	"hapd":   {hapdRun, hapdTraced},
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: hapsim | fanin | hapfit | hapd")
		seed     = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds  = flag.Float64("seconds", 20, "measurement budget in seconds")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
		bin      = flag.String("bin", "", "directory holding the built hapsim, hapnet, hapfit and hapd")
		work     = flag.String("work", "", "scratch directory for generated inputs")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *bin == "" || *work == "" || !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload hapsim|fanin|hapfit|hapd, -bin, -work, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		bin: *bin, work: filepath.Join(*work, *workload),
		metrics: map[string]metric{}, counts: map[string]int64{},
	}
	code := execute(ctx, r, w.untraced, w.traced)
	stop()
	os.Exit(code)
}

// execute runs the workload, stops every process it started, and prints
// the result; it returns the exit code.
func execute(ctx context.Context, r *run, untraced, traced func(context.Context, *run) error) int {
	defer procs.stopAll()
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	diag := diagnostics()
	f := untraced
	if r.traced {
		f = traced
	}
	err := f(ctx, r)
	procs.stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "perfbench: interrupted")
		return 1
	}
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s is not a finite number", name)
			r.set(name, m.Unit, 0)
		}
	}
	if r.attempted < 1 {
		return fail1("no operation was attempted")
	}
	guard := countGuard(r)
	record(r, diag, guard)
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail1(err.Error())
	}
	fmt.Println(string(line))
	return 0
}

func fail1(msg string) int {
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	return 1
}

// record appends the run's diagnostics, exact counts and metrics to
// runs.jsonl in the work directory and echoes the diagnostics and count
// guard on standard output ahead of the result line. None of it is gated.
func record(r *run, diag map[string]any, guard []string) {
	rec := map[string]any{
		"time": time.Now().UTC().Format(time.RFC3339), "workload": r.workload, "seed": r.seed,
		"trace": r.traced, "seconds": r.seconds, "diagnostics": diag, "counts": r.counts,
		"count_guard": guard, "problems": r.problems, "metrics": r.metrics,
		"attempted": r.attempted, "failed": r.failed,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
		return
	}
	d, _ := json.Marshal(diag)
	fmt.Printf("diagnostics %s\n", d)
	for _, g := range guard {
		fmt.Printf("count-guard %s\n", g)
	}
	f, err := os.OpenFile(filepath.Join(filepath.Dir(r.work), "runs.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
		return
	}
	_, werr := f.Write(append(b, '\n'))
	if err := errors.Join(werr, f.Close()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
	}
}
