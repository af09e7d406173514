package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	stdnet "net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hap/internal/core"
	"hap/internal/netgen"
)

// The hapd workload: the live control plane under a fixed, seeded,
// open-loop load.
const (
	// hapdStreams gives a 2⁶ = 64-state aggregate: one superpose → solve
	// → MaxScale cycle takes ~85 ms here, where 8 streams (256 states)
	// take ~3 s and pin a core.
	hapdStreams = 6
	// hapdCompress replays the paper's HAP at 100 model seconds per wall
	// second: ≈825 packets/s per stream, ≈5k/s in all.
	hapdCompress = 100.0
	// hapdRefit and hapdWindow make each refit a warm EM over a window of
	// ≈3.3k samples, ≈20 refits/s across the streams.
	hapdRefit  = 250
	hapdWindow = 4.0
	// hapdMu and hapdTarget are the service rate and delay target the
	// daemon solves and admits against: the aggregate runs at ρ ≈ 0.5.
	hapdMu     = 10000.0
	hapdTarget = 0.00012
	// hapdWorkers keeps the fit pool at the core count.
	hapdWorkers = 2
	// hapdWarm lets every window fill before measuring; hapdTail keeps
	// sending after the window so its last refits complete under load.
	hapdWarm = 5 * time.Second
	hapdTail = time.Second
	// queryRate is the fixed poll rate of each query endpoint.
	queryRate = 60
	// pollEvery paces the decision pollers.
	pollEvery = 2 * time.Millisecond
	// hapdLaunches is how many launch-to-ready times setup_s rests on,
	// the measured run's own launch included.
	hapdLaunches = 15
)

// daemon is one running hapd.
type daemon struct {
	cmd      *exec.Cmd
	api      string   // http://host:port
	udp      []string // stream addresses, s0 first
	launched time.Time
	ready    time.Duration // launch to the API answering
	reaped   chan struct{}
	peakKB   int64 // peak RSS, valid once reaped
}

var httpc = &http.Client{
	Timeout:   5 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 32, DisableCompression: true},
}

// startDaemon launches hapd and waits until its API answers.
func startDaemon(ctx context.Context, bin string) (*daemon, error) {
	listen := strings.TrimSuffix(strings.Repeat("127.0.0.1:0,", hapdStreams), ",")
	cmd := exec.Command(bin, "-listen", listen, "-http", "127.0.0.1:0",
		"-mu3", f64(hapdMu), "-target", f64(hapdTarget), "-refit", strconv.Itoa(hapdRefit),
		"-window", f64(hapdWindow), "-workers", strconv.Itoa(hapdWorkers))
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout, cmd.Stderr = pw, os.Stderr
	d := &daemon{cmd: cmd, launched: time.Now()}
	d.reaped, err = procs.start(cmd)
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, fmt.Errorf("start hapd: %w", err)
	}
	hwm := sampleHWM(cmd.Process.Pid, 20*time.Millisecond)
	go func() {
		awaitExit(cmd.Process.Pid)
		d.peakKB = hwm.peakKB()
		_ = cmd.Wait()
		procs.done(cmd)
	}()

	// Start-up prints hapdStreams+1 lines; later lines are dropped once
	// the buffer is full, which keeps the pipe drained.
	lines := make(chan string, 64)
	go func() {
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
	}()
	deadline := time.After(10 * time.Second)
	for d.api == "" {
		select {
		case l := <-lines:
			if _, a, ok := strings.Cut(l, ": udp "); ok && strings.HasPrefix(l, "stream ") {
				d.udp = append(d.udp, a)
			}
			if a, ok := strings.CutPrefix(l, "api: "); ok {
				d.api = a
			}
		case <-d.reaped:
			return nil, errors.New("hapd exited during start-up")
		case <-deadline:
			d.kill()
			return nil, errors.New("hapd printed no API address within 10 s")
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		}
	}
	for {
		resp, err := httpc.Get(d.api + "/v1/streams")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(d.launched) > 10*time.Second || ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("hapd API not answering: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	d.ready = time.Since(d.launched)
	if len(d.udp) != hapdStreams {
		d.kill()
		return nil, fmt.Errorf("hapd announced %d streams, want %d", len(d.udp), hapdStreams)
	}
	return d, nil
}

// stop drains hapd with SIGTERM and waits for it to exit; it returns the
// process's wall time, CPU time and peak RSS.
func (d *daemon) stop() (procStats, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.reaped:
	case <-time.After(20 * time.Second):
		d.kill()
		return procStats{}, errors.New("hapd did not drain within 20 s of SIGTERM")
	}
	ps := d.cmd.ProcessState
	st := procStats{wall: time.Since(d.launched), exit: ps.ExitCode(),
		cpu: ps.UserTime() + ps.SystemTime(), maxRSSKB: d.peakKB}
	if st.exit != 0 {
		return st, fmt.Errorf("hapd exited %d after SIGTERM", st.exit)
	}
	return st, nil
}

func (d *daemon) kill() {
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	<-d.reaped
}

// getJSON fetches url into v and returns the HTTP status.
func getJSON(url string, v any) (int, error) {
	resp, err := httpc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// sleepUntil sleeps until t or until ctx is done; false means done.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// packet is one scheduled datagram of the merged send plan.
type packet struct {
	at     time.Duration // offset from the start of sending
	stream int
	seq    uint64
}

// hapdLoad is the seeded input: one HAP schedule per stream, compressed
// to wall time, merged into one send plan, plus each stream's refit
// triggers.
type hapdLoad struct {
	plan     []packet
	sent     []int64 // packets per stream
	triggers [][]planTrigger
}

// planTrigger is a refit trigger on the send plan: the stream's arrival
// count that completes a refit batch and its packet's send offset.
type planTrigger struct {
	arrivals int64
	at       time.Duration
}

// makeLoad builds the send plan. The offered rate is a workload
// parameter, not a property of the seed: each stream sends exactly
// λ̄·hapdCompress packets per second over total. A stream's schedule is
// the first that many arrivals of a seeded paper-parameter HAP, with its
// time axis scaled so the last one lands at the end of total — the seed
// picks the burst pattern, not the load. (Unscaled, one run's streams
// offered from 102k to 137k packets between seeds, and decision latency
// followed the window sizes.)
func makeLoad(seed int64, total time.Duration) (*hapdLoad, error) {
	m := core.PaperParams(20)
	want := int(m.MeanRate() * hapdCompress * total.Seconds())
	l := &hapdLoad{sent: make([]int64, hapdStreams), triggers: make([][]planTrigger, hapdStreams)}
	for i := 0; i < hapdStreams; i++ {
		var arr []netgen.Arrival
		for horizon := 2 * total.Seconds() * hapdCompress; len(arr) < want; horizon *= 2 {
			s, err := netgen.GenerateHAP(m, horizon, subSeed(seed, 10+i))
			if err != nil {
				return nil, err
			}
			arr = s.Arrivals
		}
		scale := total.Seconds() / arr[want-1].T
		for k, a := range arr[:want] {
			at := time.Duration(a.T * scale * float64(time.Second))
			l.plan = append(l.plan, packet{at: at, stream: i, seq: uint64(k)})
			if n := int64(k + 1); n%hapdRefit == 0 {
				l.triggers[i] = append(l.triggers[i], planTrigger{n, at})
			}
		}
		l.sent[i] = int64(want)
	}
	sort.SliceStable(l.plan, func(a, b int) bool { return l.plan[a].at < l.plan[b].at })
	return l, nil
}

// send replays the plan open-loop from start: each packet leaves at its
// due time, however late the previous one left. It returns how late each
// packet left, in milliseconds.
func send(ctx context.Context, start time.Time, plan []packet, conns []stdnet.Conn) ([]float64, error) {
	late := make([]float64, 0, len(plan))
	buf := make([]byte, 0, netgen.HeaderSize)
	for _, p := range plan {
		due := start.Add(p.at)
		if !sleepUntil(ctx, due) {
			return late, ctx.Err()
		}
		now := time.Now()
		late = append(late, float64(now.Sub(due).Nanoseconds())/1e6)
		buf = netgen.Packet{Seq: p.seq, SendUnix: now.UnixNano()}.Encode(buf[:0])
		if _, err := conns[p.stream].Write(buf); err != nil {
			return late, fmt.Errorf("send to stream %d: %w", p.stream, err)
		}
	}
	return late, nil
}

// fitReply is the part of /v1/streams/{id}/fit the pollers read.
type fitReply struct {
	State         string  `json:"state"`
	FitAgeSeconds float64 `json:"fit_age_seconds"`
	Fit           struct {
		Arrivals   int64   `json:"arrivals"`
		WindowN    int     `json:"window_n"`
		R0         float64 `json:"r0"`
		R1         float64 `json:"r1"`
		Q01        float64 `json:"q01"`
		Q10        float64 `json:"q10"`
		Iterations int     `json:"iterations"`
	} `json:"fit"`
}

// decisionPoller watches one stream's published fit. After each refit
// trigger is due it polls every pollEvery until the fit reports the
// trigger's arrival count (or a later one), or the next trigger is due.
// The fit's age dates its publication, so the poll interval bounds only
// how soon a decision is seen, not the latency reported for it; it sits
// far below the ≈0.3 s between one stream's refits, so none is missed.
type decisionPoller struct {
	url      string
	triggers []trigger
	until    time.Time
	obs      []observation
	sawLive  bool
	non2xx   int64
	polls    int64
	pollTime time.Duration
}

func (p *decisionPoller) run(ctx context.Context) {
	for k, tg := range p.triggers {
		if !sleepUntil(ctx, tg.due) {
			return
		}
		stop := p.until
		if k+1 < len(p.triggers) {
			stop = p.triggers[k+1].due
		}
		for time.Now().Before(stop) && ctx.Err() == nil {
			var f fitReply
			t0 := time.Now()
			code, err := getJSON(p.url, &f)
			now := time.Now()
			p.polls++
			p.pollTime += now.Sub(t0)
			if err != nil || code/100 != 2 {
				if code != http.StatusServiceUnavailable { // 503 = still warming
					p.non2xx++
				}
			} else {
				p.sawLive = p.sawLive || f.State == "live"
				mid := t0.Add(now.Sub(t0) / 2)
				p.obs = append(p.obs, observation{at: now, arrivals: f.Fit.Arrivals,
					published: mid.Add(-time.Duration(f.FitAgeSeconds * float64(time.Second)))})
				if f.Fit.Arrivals >= tg.arrivals {
					break
				}
			}
			time.Sleep(pollEvery)
		}
	}
}

// queryPoller polls one endpoint at a fixed rate, open-loop, and times
// each request from when it was due.
type queryPoller struct {
	urls     []string // polled round robin
	start    time.Time
	from, to time.Time // the measured window
	lat      []float64 // ms, due to response, requests due inside the window
	late     []float64 // ms, how late each request left
	headroom []float64 // decisions' admission headroom
	admits   int64
	non2xx   int64
	polls    int64
}

func (q *queryPoller) run(ctx context.Context) {
	period := time.Second / queryRate
	for k := 0; ; k++ {
		due := q.start.Add(time.Duration(k) * period)
		if !due.Before(q.to) || !sleepUntil(ctx, due) {
			return
		}
		left := time.Now()
		var v struct {
			Admit    bool    `json:"admit"`
			Headroom float64 `json:"headroom"`
		}
		code, err := getJSON(q.urls[k%len(q.urls)], &v)
		if due.Before(q.from) {
			continue
		}
		q.polls++
		q.late = append(q.late, float64(left.Sub(due).Nanoseconds())/1e6)
		if err != nil || code/100 != 2 {
			q.non2xx++
			continue
		}
		q.lat = append(q.lat, float64(time.Since(due).Nanoseconds())/1e6)
		q.headroom = append(q.headroom, v.Headroom)
		if v.Admit {
			q.admits++
		}
	}
}

// aggReply is the part of /v1/aggregate/fit the aggregate poller reads.
type aggReply struct {
	Streams       []string `json:"streams"`
	States        int      `json:"states"`
	FitAgeSeconds float64  `json:"fit_age_seconds"`
}

// aggPoller times each aggregate recompute: from its tick (at = response
// time − fit_age_seconds) to the first poll that sees it. The daemon
// ticks once a second, so after each sighting the poller sleeps until
// just before the next tick and then polls every millisecond.
type aggPoller struct {
	url      string
	from, to time.Time
	lat      []float64 // ms
	non2xx   int64
	last     aggReply
}

func (a *aggPoller) run(ctx context.Context) {
	var prevAt time.Time
	for time.Now().Before(a.to) && ctx.Err() == nil {
		var v aggReply
		code, err := getJSON(a.url, &v)
		now := time.Now()
		switch {
		case err != nil || (code/100 != 2 && code != http.StatusServiceUnavailable):
			a.non2xx++
		case code/100 == 2:
			a.last = v
			at := now.Add(-time.Duration(v.FitAgeSeconds * float64(time.Second)))
			if at.Sub(prevAt) > 100*time.Millisecond {
				if !prevAt.IsZero() && !at.Before(a.from) {
					a.lat = append(a.lat, float64(now.Sub(at).Nanoseconds())/1e6)
				}
				prevAt = at
				if !sleepUntil(ctx, at.Add(time.Second-5*time.Millisecond)) {
					return
				}
				continue
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// promText parses a Prometheus text exposition into family sums: labelled
// series of one family add up.
func promText(b []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
			if j := strings.LastIndexByte(line, '}'); j >= 0 {
				val = strings.TrimSpace(line[j+1:])
			}
		}
		f := strings.Fields(val)
		if len(f) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(f[0], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

func hapdRun(ctx context.Context, r *run) error { return hapdWorkload(ctx, r, false) }

func hapdTraced(ctx context.Context, r *run) error {
	zeroPerLayer(r)
	return hapdWorkload(ctx, r, true)
}

// hapdWorkload runs the live control plane: set-up (schedules, launch to
// ready), then the open-loop sender, the decision, aggregate and query
// pollers over warm-up + window + tail, then the final reads and the
// drain. The traced run adds a /metrics scrape before the drain and a
// replay of the published fits through the solver calls afterwards.
func hapdWorkload(ctx context.Context, r *run, traced bool) error {
	bin := filepath.Join(r.bin, "hapd")
	window := time.Duration(r.seconds * float64(time.Second))
	load, err := makeLoad(r.seed, hapdWarm+window+hapdTail)
	if err != nil {
		return err
	}
	var readies []float64
	for i := 0; i < hapdLaunches-1; i++ {
		d, err := startDaemon(ctx, bin)
		if err != nil {
			return err
		}
		readies = append(readies, d.ready.Seconds())
		// hapd answers its API a moment before it handles SIGTERM, so a
		// launch that is only timed is killed, not drained.
		d.kill()
	}
	d, err := startDaemon(ctx, bin)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	readies = append(readies, d.ready.Seconds())

	conns := make([]stdnet.Conn, hapdStreams)
	for i, a := range d.udp {
		if conns[i], err = stdnet.Dial("udp", a); err != nil {
			return err
		}
		defer conns[i].Close()
	}

	start := time.Now().Add(20 * time.Millisecond)
	from, to := start.Add(hapdWarm), start.Add(hapdWarm+window)
	end := to.Add(hapdTail)
	pollers := make([]*decisionPoller, hapdStreams)
	for i := range pollers {
		p := &decisionPoller{url: fmt.Sprintf("%s/v1/streams/s%d/fit", d.api, i), until: end}
		for _, tg := range load.triggers[i] {
			if due := start.Add(tg.at); !due.Before(from) && due.Before(to) {
				p.triggers = append(p.triggers, trigger{arrivals: tg.arrivals, due: due})
			}
		}
		pollers[i] = p
	}
	var streamURLs []string
	for i := 0; i < hapdStreams; i++ {
		streamURLs = append(streamURLs, fmt.Sprintf("%s/v1/streams/s%d/admit", d.api, i))
	}
	queries := []*queryPoller{
		{urls: streamURLs, start: start, from: from, to: to},
		{urls: []string{d.api + "/v1/aggregate/admit"}, start: start.Add(time.Second / (2 * queryRate)), from: from, to: to},
	}
	agg := &aggPoller{url: d.api + "/v1/aggregate/fit", from: from, to: to}

	var wg sync.WaitGroup
	var late []float64
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		late, sendErr = send(ctx, start, load.plan, conns)
	}()
	for _, p := range pollers {
		wg.Add(1)
		go func(p *decisionPoller) { defer wg.Done(); p.run(ctx) }(p)
	}
	for _, q := range queries {
		wg.Add(1)
		go func(q *queryPoller) { defer wg.Done(); q.run(ctx) }(q)
	}
	wg.Add(1)
	go func() { defer wg.Done(); agg.run(ctx) }()
	wg.Wait()
	if sendErr != nil {
		return sendErr
	}

	// Final reads: what each stream received, and the aggregate's reach.
	time.Sleep(200 * time.Millisecond)
	var dir struct {
		Streams []struct {
			ID       string `json:"id"`
			Arrivals int64  `json:"arrivals"`
		} `json:"streams"`
	}
	if code, err := getJSON(d.api+"/v1/streams", &dir); err != nil || code != http.StatusOK {
		return fmt.Errorf("final /v1/streams: %d %v", code, err)
	}
	var aggFinal aggReply
	if code, err := getJSON(d.api+"/v1/aggregate/fit", &aggFinal); err != nil || code != http.StatusOK {
		return fmt.Errorf("final /v1/aggregate/fit: %d %v", code, err)
	}
	var metricsText []byte
	var history [][]fitReply
	if traced {
		if metricsText, history, err = scrape(d); err != nil {
			return err
		}
	}
	st, err := d.stop()
	d = nil
	if err != nil {
		r.failed++
		r.fail("%v", err)
	}

	// Accounting.
	var sent, lost int64
	for i, s := range dir.Streams {
		if i < hapdStreams {
			sent += load.sent[i]
			if l := load.sent[i] - s.Arrivals; l > 0 {
				lost += l
			}
		}
	}
	var lat []float64 // decision latencies, ms
	var triggers, unobserved, non2xx, polls int64
	var pollTime time.Duration
	for i, p := range pollers {
		for _, o := range matchDecisions(p.triggers, p.obs) {
			triggers++
			if o.observed {
				lat = append(lat, float64(o.latency.Nanoseconds())/1e6)
			} else {
				unobserved++
			}
		}
		non2xx += p.non2xx
		polls += p.polls
		pollTime += p.pollTime
		if !p.sawLive {
			r.fail("stream s%d never reported live", i)
		}
	}
	var qlat []float64
	var qpolls int64
	for _, q := range queries {
		qlat = append(qlat, q.lat...)
		late = append(late, q.late...)
		non2xx += q.non2xx
		qpolls += q.polls
	}
	non2xx += agg.non2xx
	fmt.Fprintf(os.Stderr, "perfbench: hapd: stream decisions admit %d/%d (median headroom %.3g), aggregate admit %d/%d (median headroom %.3g)\n",
		queries[0].admits, len(queries[0].lat), median(queries[0].headroom),
		queries[1].admits, len(queries[1].lat), median(queries[1].headroom))
	if len(aggFinal.Streams) != hapdStreams || aggFinal.States != 1<<hapdStreams {
		r.fail("aggregate covers %d streams (%d states), want all %d", len(aggFinal.Streams), aggFinal.States, hapdStreams)
	}
	if len(lat) == 0 {
		r.fail("no refit decision was observed")
	}
	r.attempted += sent + triggers + qpolls
	r.failed += lost + unobserved + non2xx
	meanPoll := 0.0
	if polls > 0 {
		meanPoll = pollTime.Seconds() * 1000 / float64(polls)
	}
	fmt.Fprintf(os.Stderr, "perfbench: hapd: decision ms p10 %.3g p25 %.3g p50 %.3g p75 %.3g p90 %.3g\n",
		percentile(lat, 10), percentile(lat, 25), percentile(lat, 50), percentile(lat, 75), percentile(lat, 90))
	fmt.Fprintf(os.Stderr, "perfbench: hapd: %d packets (%d lost), %d triggers, %d decisions (%d unobserved), decision p50 %.3g ms (poll round trip %.3g ms); %d queries, %d non-2xx; %d aggregate decisions\n",
		sent, lost, triggers, len(lat), unobserved, median(lat), meanPoll, qpolls, non2xx, len(agg.lat))

	if !traced {
		r.set("setup_s", "s", median(readies))
		r.set("answer_s", "s", percentile(lat, 25)/1000)
		r.set("cpu_s", "s", st.cpu.Seconds())
		return nil
	}
	r.setL("proc.peak_rss_mb", st.rssMB())
	r.setL("hapd.decisions", float64(len(lat)))
	r.setL("hapd.decision_ms_p50", median(lat))
	p95, got := tail(lat, 95)
	if got != 95 {
		fmt.Fprintf(os.Stderr, "perfbench: hapd: %d decisions support only p%g\n", len(lat), got)
	}
	r.setL("hapd.decision_ms_p95", p95)
	r.setL("hapd.agg_decision_ms_p50", median(agg.lat))
	r.setL("hapd.query_ms_p50", median(qlat))
	q99, got := tail(qlat, 99)
	if got != 99 {
		fmt.Fprintf(os.Stderr, "perfbench: hapd: %d queries support only p%g\n", len(qlat), got)
	}
	r.setL("hapd.query_ms_p99", q99)
	l99, _ := tail(late, 99)
	r.setL("gen.late_ms_p99", l99)
	if sent > 0 {
		r.setL("ingest.loss_ratio", float64(lost)/float64(sent))
	}
	r.setL("tracing_overhead_pct", 0) // the scrape and replay run after the window
	ctrlLayers(r, promText(metricsText), history)
	r.setL("fit.ns_per_add_slide", addSlideProbe(hapdWindow, core.PaperParams(20).MeanRate()*hapdCompress))
	return nil
}

// scrape reads the daemon's /metrics exposition and every stream's
// decision history ring.
func scrape(d *daemon) ([]byte, [][]fitReply, error) {
	resp, err := httpc.Get(d.api + "/metrics")
	if err != nil {
		return nil, nil, err
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	var hist [][]fitReply
	for i := 0; i < hapdStreams; i++ {
		var h struct {
			Records []fitReply `json:"records"`
		}
		if code, err := getJSON(fmt.Sprintf("%s/v1/streams/s%d/history", d.api, i), &h); err != nil || code != http.StatusOK {
			return nil, nil, fmt.Errorf("history of s%d: %d %v", i, code, err)
		}
		hist = append(hist, h.Records)
	}
	return text, hist, nil
}
