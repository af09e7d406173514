package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// waitid(2) constants the syscall package does not export.
const (
	_P_PID   = 1
	_WNOWAIT = 0x01000000
)

// procSet tracks every child process so that no exit path of the
// benchmark leaves one running. Each child leads its own process group,
// and stopAll kills the groups and waits for the children to be reaped.
type procSet struct {
	mu   sync.Mutex
	live map[*exec.Cmd]chan struct{} // closed once the child is reaped
}

var procs = procSet{live: map[*exec.Cmd]chan struct{}{}}

// start launches cmd in its own process group and registers it.
func (p *procSet) start(cmd *exec.Cmd) (reaped chan struct{}, err error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	reaped = make(chan struct{})
	p.mu.Lock()
	p.live[cmd] = reaped
	p.mu.Unlock()
	return reaped, nil
}

// done unregisters a reaped child.
func (p *procSet) done(cmd *exec.Cmd) {
	p.mu.Lock()
	if ch, ok := p.live[cmd]; ok {
		close(ch)
		delete(p.live, cmd)
	}
	p.mu.Unlock()
}

// stopAll kills every registered child's process group and waits until
// each child has been reaped by the goroutine that waits on it.
func (p *procSet) stopAll() {
	p.mu.Lock()
	var waits []chan struct{}
	for cmd, ch := range p.live {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		waits = append(waits, ch)
	}
	p.mu.Unlock()
	for _, ch := range waits {
		<-ch
	}
}

// procStats is what one finished program run cost, measured from outside.
type procStats struct {
	wall     time.Duration // launch to exit
	cpu      time.Duration // user + system CPU of the process
	maxRSSKB int64         // peak resident set size
	exit     int
	stdout   []byte
	stderr   []byte
}

// hwmSampler follows a child's peak resident set size through the VmHWM
// line of /proc/<pid>/status. wait4's ru_maxrss cannot serve: Go starts
// children with vfork semantics, so the kernel folds the parent's own
// high-water mark into the child's at exec.
type hwmSampler struct {
	stop chan struct{}
	done chan struct{}
	kb   int64
}

func sampleHWM(pid int, every time.Duration) *hwmSampler {
	h := &hwmSampler{stop: make(chan struct{}), done: make(chan struct{})}
	path := fmt.Sprintf("/proc/%d/status", pid)
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if kb := readHWM(path); kb > h.kb {
				h.kb = kb
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakKB stops the sampler and returns the highest VmHWM it read. Call it
// before the child is reaped: the status file goes with the process.
func (h *hwmSampler) peakKB() int64 {
	close(h.stop)
	<-h.done
	return h.kb
}

// awaitExit blocks until the child pid has exited without reaping it, so
// a VmHWM sampler can stop before the pid can be reused.
func awaitExit(pid int) {
	var siginfo [128]byte
	for {
		_, _, e := syscall.Syscall6(syscall.SYS_WAITID, _P_PID, uintptr(pid),
			uintptr(unsafe.Pointer(&siginfo[0])), syscall.WEXITED|_WNOWAIT, 0, 0)
		if e != syscall.EINTR {
			return
		}
	}
}

func readHWM(path string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}

func (s procStats) rssMB() float64 { return float64(s.maxRSSKB) / 1024 }

// jobLimit stops a program that hangs, so a broken build cannot keep the
// benchmark past its time limit.
const jobLimit = 60 * time.Second

// runProgram runs one program to completion and reports its wall time
// from launch to exit, its CPU time (from wait4) and its peak RSS.
func runProgram(ctx context.Context, path string, args ...string) (procStats, error) {
	ctx, cancel := context.WithTimeout(ctx, jobLimit)
	defer cancel()
	cmd := exec.Command(path, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	reaped, err := procs.start(cmd)
	if err != nil {
		return procStats{}, fmt.Errorf("start %s: %w", path, err)
	}
	hwm := sampleHWM(cmd.Process.Pid, 5*time.Millisecond)
	stop := context.AfterFunc(ctx, func() { _ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) })
	awaitExit(cmd.Process.Pid)
	wall := time.Since(t0)
	peak := hwm.peakKB()
	werr := cmd.Wait()
	stop()
	procs.done(cmd)
	<-reaped
	st := procStats{wall: wall, maxRSSKB: peak, stdout: out.Bytes(), stderr: errb.Bytes()}
	if ps := cmd.ProcessState; ps != nil {
		st.exit = ps.ExitCode()
		st.cpu = ps.UserTime() + ps.SystemTime()
	}
	if ctx.Err() != nil {
		return st, ctx.Err()
	}
	if werr != nil && st.exit == 0 {
		return st, fmt.Errorf("wait %s: %w", path, werr)
	}
	return st, nil
}
