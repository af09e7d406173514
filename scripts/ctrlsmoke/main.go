// Command ctrlsmoke is the `make ctrl-smoke` gate: it builds cmd/hapd,
// boots it with three streams on a 2-worker shared fit pool, bursts
// every stream over UDP, polls the decision API until per-stream and
// aggregate admission decisions are served, checks the decision history
// ring, asserts the hap_ctrl_* metric families (including the pool and
// aggregate ones) are live, then SIGTERMs the daemon and requires a
// clean drained exit. A second daemon is SIGTERMed the moment it
// announces its API, and must drain the same way.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"hap/internal/netgen"
)

// streams is how many UDP sinks the smoke daemon serves; workers is the
// (smaller) shared pool size — the point of the exercise.
const (
	streams = 3
	workers = 2
)

// required are the control-plane families the observability contract
// promises once at least one refit → solve → admit cycle and one
// aggregate recompute have run.
var required = []string{
	"hap_ctrl_streams",
	"hap_ctrl_arrivals_total",
	"hap_ctrl_refits_total",
	"hap_ctrl_solves_total",
	"hap_ctrl_pool_workers",
	"hap_ctrl_pool_jobs_total",
	"hap_ctrl_aggregate_streams",
	"hap_ctrl_aggregate_solves_total",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ctrl-smoke:", err)
		os.Exit(1)
	}
	fmt.Println("ctrl-smoke: ok")
}

func run() error {
	dir, err := os.MkdirTemp("", "ctrlsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "hapd")

	build := exec.Command("go", "build", "-o", bin, "./cmd/hapd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build hapd: %w", err)
	}

	// Small refit/window thresholds so one short burst crosses a full
	// fit → solve → admit cycle on every stream.
	cmd := exec.Command(bin,
		"-listen", strings.TrimSuffix(strings.Repeat("127.0.0.1:0,", streams), ","),
		"-workers", fmt.Sprint(workers),
		"-mu3", "1e5",
		"-target", "0.01",
		"-refit", "200",
		"-min-window", "32",
		"-window", "600")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	udpAddrs, apiAddr, rest, err := awaitAddrs(stdout, streams)
	if err != nil {
		return err
	}

	for _, addr := range udpAddrs {
		if err := feed(addr, 1200); err != nil {
			return err
		}
	}

	base := "http://" + apiAddr
	for i := range udpAddrs {
		if err := awaitDecision(fmt.Sprintf("%s/v1/streams/s%d/admit", base, i)); err != nil {
			return err
		}
	}
	// Every stream has decided, so the next aggregate recompute (tick
	// cadence, 1s) must serve a merged decision over all of them.
	if err := awaitAggregate(base+"/v1/aggregate/admit", streams); err != nil {
		return err
	}
	for i := range udpAddrs {
		if err := checkHistory(fmt.Sprintf("%s/v1/streams/s%d/history", base, i)); err != nil {
			return err
		}
	}

	page, err := scrape(base + "/metrics")
	if err != nil {
		return err
	}
	var missing []string
	for _, name := range required {
		if !strings.Contains(page, name) {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("exposition missing %v\n--- page ---\n%s", missing, page)
	}

	if err := terminate(cmd, rest); err != nil {
		return err
	}
	return earlyTerm(bin)
}

// terminate sends SIGTERM and requires a drain: exit 0 and the drain
// announcement on stdout. It reads the pipe to EOF before Wait — Wait
// closes it and would discard the drain line.
func terminate(cmd *exec.Cmd, rest <-chan string) error {
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	var out string
	select {
	case out = <-rest:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("hapd did not exit within 30s of SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("hapd exited non-zero after SIGTERM: %w", err)
	}
	if !strings.Contains(out, "hapd: drained") {
		return fmt.Errorf("missing drain announcement; stdout tail: %.200s", out)
	}
	return nil
}

// earlyTerm boots a one-stream daemon and sends SIGTERM the moment the
// api line appears, before any traffic: the signal handler must already
// be in place, so the daemon still drains and exits 0.
func earlyTerm(bin string) error {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-mu3", "1e5", "-target", "0.01")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	_, _, rest, err := awaitAddrs(stdout, 1)
	if err != nil {
		return err
	}
	if err := terminate(cmd, rest); err != nil {
		return fmt.Errorf("early SIGTERM: %w", err)
	}
	return nil
}

// awaitAddrs reads the child's stdout until all n stream announcements
// and the API address, then keeps draining the pipe in the background
// and delivers the remaining output on the returned channel.
func awaitAddrs(r io.Reader, n int) (udp []string, api string, rest <-chan string, err error) {
	sc := bufio.NewScanner(r)
	type addrs struct {
		udp map[string]string
		api string
	}
	got := make(chan addrs, 1)
	tail := make(chan string, 1)
	go func() {
		a := addrs{udp: make(map[string]string)}
		var buf bytes.Buffer
		sent := false
		for sc.Scan() {
			line := sc.Text()
			buf.WriteString(line)
			buf.WriteByte('\n')
			if rest, ok := strings.CutPrefix(line, "stream "); ok {
				if id, addr, ok := strings.Cut(rest, ": udp "); ok {
					a.udp[id] = addr
				}
			}
			if v, ok := strings.CutPrefix(line, "api: http://"); ok {
				a.api = v
			}
			if !sent && len(a.udp) == n && a.api != "" {
				got <- a
				sent = true
			}
		}
		if !sent {
			close(got)
		}
		tail <- buf.String()
	}()
	select {
	case a, ok := <-got:
		if !ok {
			return nil, "", nil, fmt.Errorf("hapd exited without announcing its addresses")
		}
		out := make([]string, 0, n)
		for i := 0; i < n; i++ {
			addr, ok := a.udp[fmt.Sprintf("s%d", i)]
			if !ok {
				return nil, "", nil, fmt.Errorf("hapd never announced stream s%d", i)
			}
			out = append(out, addr)
		}
		return out, a.api, tail, nil
	case <-time.After(30 * time.Second):
		return nil, "", nil, fmt.Errorf("timed out waiting for hapd address announcements")
	}
}

// feed sends n sequenced packets to the stream sink, paced so the
// fitted window spans a measurable interval.
func feed(addr string, n int) error {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var buf []byte
	for i := 1; i <= n; i++ {
		buf = netgen.Packet{Seq: uint64(i)}.Encode(buf[:0])
		if _, err := conn.Write(buf); err != nil {
			return err
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// awaitDecision polls the admit endpoint until it serves a decision
// (200 with an "admit" field — 503 means the stream is still warming).
func awaitDecision(url string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(url)
		if err != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			var dec struct {
				Admit    *bool   `json:"admit"`
				Headroom float64 `json:"headroom"`
			}
			if err := json.Unmarshal(body, &dec); err != nil {
				return fmt.Errorf("admit response is not JSON: %.200s", body)
			}
			if dec.Admit == nil {
				return fmt.Errorf("admit response missing admit field: %.200s", body)
			}
			return nil
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			return fmt.Errorf("GET %s: %s: %.200s", url, resp.Status, body)
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("no admission decision served within 30s")
}

// awaitAggregate polls the aggregate admit endpoint until the merged
// decision covers every stream (the recompute runs on a 1s tick, so the
// first answers may span fewer fits).
func awaitAggregate(url string, want int) error {
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		resp, err := client.Get(url)
		if err != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		last = string(body)
		if resp.StatusCode == http.StatusOK {
			var dec struct {
				Admit   *bool    `json:"admit"`
				Streams []string `json:"streams"`
				States  int      `json:"states"`
			}
			if err := json.Unmarshal(body, &dec); err != nil {
				return fmt.Errorf("aggregate admit response is not JSON: %.200s", body)
			}
			if dec.Admit == nil {
				return fmt.Errorf("aggregate admit response missing admit field: %.200s", body)
			}
			if len(dec.Streams) == want {
				if dec.States != 1<<want {
					return fmt.Errorf("aggregate states = %d over %d streams, want %d: %.200s",
						dec.States, want, 1<<want, body)
				}
				return nil
			}
		} else if resp.StatusCode != http.StatusServiceUnavailable {
			return fmt.Errorf("GET %s: %s: %.200s", url, resp.Status, body)
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("aggregate decision never covered all %d streams within 30s; last: %.300s", want, last)
}

// checkHistory asserts the decision history ring serves at least one
// record with the fit → decision provenance.
func checkHistory(url string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %.200s", url, resp.Status, body)
	}
	var hist struct {
		Capacity int `json:"capacity"`
		Records  []struct {
			Fit      *json.RawMessage `json:"fit"`
			Decision *json.RawMessage `json:"decision"`
		} `json:"records"`
	}
	if err := json.Unmarshal(body, &hist); err != nil {
		return fmt.Errorf("history response is not JSON: %.200s", body)
	}
	if hist.Capacity <= 0 || len(hist.Records) == 0 {
		return fmt.Errorf("history empty after decisions: %.200s", body)
	}
	if hist.Records[0].Fit == nil || hist.Records[0].Decision == nil {
		return fmt.Errorf("history record missing fit/decision: %.200s", body)
	}
	return nil
}

func scrape(url string) (string, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}
