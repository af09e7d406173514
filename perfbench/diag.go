package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// diagnostics describes the machine a run measured on: the CPU model, the
// core count, GOMAXPROCS, the load average just before the run, and the
// time of a fixed pure-Go loop that shares no code with the programs. A
// noisy verdict can be traced back to the machine through these; none of
// them is gated.
func diagnostics() map[string]any {
	d := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				d["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			d["loadavg"] = strings.Join(f[:3], " ")
		}
	}
	d["speed_probe_ms"] = speedProbe()
	return d
}

// probeSink keeps the speed probe's result live.
var probeSink uint64

// speedProbe times a fixed integer and floating-point loop (a xorshift
// generator feeding a running sum), in milliseconds. It allocates nothing
// and touches one cache line, so it tracks the core's clock and any
// co-tenant contention, not the memory system.
func speedProbe() float64 {
	t0 := time.Now()
	x, acc := uint64(88172645463325252), 0.0
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += float64(x>>11) * (1.0 / (1 << 53))
	}
	probeSink += x + uint64(acc)
	return float64(time.Since(t0).Microseconds()) / 1000
}

// subSeed derives the i-th program seed from the workload seed
// (splitmix64), so neighbouring workload seeds give unrelated inputs.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 2) // non-negative, well inside the flag parser's range
}

// countsRef holds the exact counts recorded, per workload and seed, by the
// commit that defined the benchmark.
//
//go:embed counts_ref.json
var countsRef []byte

// countGuard compares the run's exact counts with the recorded ones for
// the same workload and seed and returns one line per count. A difference
// means the program now does different work at that seed, so a speed-up
// that comes with it is not a like-for-like comparison. It is reported,
// not gated.
func countGuard(r *run) []string {
	var ref map[string]map[string]map[string]int64
	if err := json.Unmarshal(countsRef, &ref); err != nil {
		return []string{"reference unreadable: " + err.Error()}
	}
	want := ref[r.workload][strconv.FormatInt(r.seed, 10)]
	names := make([]string, 0, len(r.counts))
	for k := range r.counts {
		names = append(names, k)
	}
	sort.Strings(names)
	var out []string
	for _, k := range names {
		v := r.counts[k]
		w, ok := want[k]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s seed %d %s=%d (no reference for this seed)", r.workload, r.seed, k, v))
		case w == v:
			out = append(out, fmt.Sprintf("%s seed %d %s=%d (same as reference)", r.workload, r.seed, k, v))
		default:
			out = append(out, fmt.Sprintf("%s seed %d %s=%d DIFFERS from reference %d: the work done at this seed changed", r.workload, r.seed, k, v, w))
		}
	}
	return out
}
